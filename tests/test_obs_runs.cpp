// pdw::obs — flight recorder ring/dump semantics, run-record store
// round-trips, and the diffRuns regression comparator.
//
// The solver-integration test drives a real (tiny) MILP with a
// zero-seconds slow-solve threshold and asserts the lane dumped a valid
// `pdw-flight-1` block whose header counts reconcile with the retained
// events — the same invariants tools/obs_check --flight enforces on full
// benchmark runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ilp/solver.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/runs.h"

namespace pdw {
namespace {

using obs::FlightConfig;
using obs::FlightEventKind;
using obs::FlightRecorder;

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "pdw_" + name;
}

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// ---- flight recorder ring ------------------------------------------------

TEST(FlightRecorder, RingOverflowKeepsLatestWithExactCounts) {
  FlightConfig config;
  config.enabled = true;
  config.ring_capacity = 8;
  FlightRecorder rec(config, "canonical");

  for (int i = 0; i < 20; ++i)
    rec.record(FlightEventKind::NodeOpen, /*node=*/i, /*value=*/double(i));
  rec.record(FlightEventKind::Incumbent, -1, 42.0);

  // Counts are exact regardless of overflow.
  EXPECT_EQ(rec.count(FlightEventKind::NodeOpen), 20);
  EXPECT_EQ(rec.count(FlightEventKind::Incumbent), 1);
  EXPECT_EQ(rec.recorded(), 21);
  EXPECT_EQ(rec.retained(), 8u);
  EXPECT_EQ(rec.dropped(), 13);

  // The ring keeps the LATEST events, oldest-first: NodeOpen 13..19 then
  // the Incumbent, with strictly increasing sequence numbers.
  for (std::size_t i = 0; i + 1 < rec.retained(); ++i) {
    EXPECT_LT(rec.event(i).seq, rec.event(i + 1).seq);
  }
  EXPECT_EQ(rec.event(0).kind, FlightEventKind::NodeOpen);
  EXPECT_EQ(rec.event(0).node, 13);
  EXPECT_EQ(rec.event(rec.retained() - 1).kind, FlightEventKind::Incumbent);
  EXPECT_DOUBLE_EQ(rec.event(rec.retained() - 1).value, 42.0);
}

TEST(FlightRecorder, ShouldDumpPolicy) {
  FlightConfig config;
  config.enabled = true;
  config.dump_all = false;
  config.dump_on_limit = true;
  config.slow_solve_seconds = 1.0;

  // Empty path: never dump, whatever the trigger.
  EXPECT_FALSE(FlightRecorder(config, "canonical").shouldDump(true, 99.0));

  config.path = tempPath("never_written.jsonl");
  const FlightRecorder rec(config, "canonical");
  EXPECT_TRUE(rec.shouldDump(/*hit_limit=*/true, 0.0));   // budget trigger
  EXPECT_TRUE(rec.shouldDump(false, 2.0));                // slow trigger
  EXPECT_FALSE(rec.shouldDump(false, 0.5));               // fast, no limit

  FlightConfig all = config;
  all.dump_all = true;
  EXPECT_TRUE(FlightRecorder(all, "canonical").shouldDump(false, 0.0));
}

TEST(FlightRecorder, DumpRoundTripReconciles) {
  const std::string path = tempPath("flight_roundtrip.jsonl");
  std::remove(path.c_str());

  FlightConfig config;
  config.enabled = true;
  config.path = path;
  config.dump_all = true;
  config.ring_capacity = 4;  // force drops: 6 recorded, 4 retained
  FlightRecorder rec(config, "test-lane");
  rec.record(FlightEventKind::SolveBegin, 0, 10.0, 3.0);
  for (int i = 0; i < 4; ++i) rec.record(FlightEventKind::NodeOpen, i);
  rec.record(FlightEventKind::NodePruned, 3, -5.0,
             obs::kPruneReasonLpBound);
  ASSERT_TRUE(rec.dump("optimal", 0.25));

  const std::vector<std::string> lines = readLines(path);
  ASSERT_EQ(lines.size(), 1u + rec.retained());

  const auto header = obs::json::parse(lines[0]);
  ASSERT_TRUE(header && header->isObject());
  EXPECT_EQ(header->find("type")->string, "solve");
  EXPECT_EQ(header->find("schema")->string, "pdw-flight-1");
  EXPECT_EQ(header->find("lane")->string, "test-lane");
  EXPECT_EQ(header->find("status")->string, "optimal");
  EXPECT_DOUBLE_EQ(header->find("wall_seconds")->number, 0.25);
  EXPECT_DOUBLE_EQ(header->find("dropped")->number, 2.0);
  EXPECT_DOUBLE_EQ(header->find("events")->number, 4.0);

  // Header counts are the EXACT per-kind totals; their sum must equal
  // dropped + retained events (the obs_check reconciliation invariant).
  const obs::json::Value* counts = header->find("counts");
  ASSERT_TRUE(counts && counts->isObject());
  EXPECT_DOUBLE_EQ(counts->find("solve_begin")->number, 1.0);
  EXPECT_DOUBLE_EQ(counts->find("node_open")->number, 4.0);
  EXPECT_DOUBLE_EQ(counts->find("node_pruned")->number, 1.0);
  double counts_sum = 0.0;
  for (const auto& [kind, value] : counts->object) counts_sum += value.number;
  EXPECT_DOUBLE_EQ(counts_sum, header->find("dropped")->number +
                                   header->find("events")->number);

  // Event lines: known kinds, strictly increasing seq, oldest first.
  double prev_seq = -1.0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto event = obs::json::parse(lines[i]);
    ASSERT_TRUE(event && event->isObject()) << lines[i];
    EXPECT_EQ(event->find("type")->string, "event");
    EXPECT_GT(event->find("seq")->number, prev_seq);
    prev_seq = event->find("seq")->number;
  }
  const auto last = obs::json::parse(lines.back());
  EXPECT_EQ(last->find("kind")->string, "node_pruned");
  EXPECT_DOUBLE_EQ(last->find("extra")->number, obs::kPruneReasonLpBound);
  std::remove(path.c_str());
}

// ---- run-record store ----------------------------------------------------

obs::RunRecord makeRecord(const std::string& label,
                          const std::string& git_sha, double wall,
                          double iterations) {
  obs::RunRecord record;
  record.label = label;
  record.bench = "test_bench";
  record.timestamp = "2026-08-09T00:00:00Z";
  record.git_sha = git_sha;
  record.build = "Test GNU";
  record.engine = "revised";
  record.config = "engine=revised";
  obs::RunRow row;
  row.name = "knapsack_small";
  row.family = "synthetic";
  row.values = {{"wall_seconds", wall}, {"simplex_iterations", iterations}};
  record.rows.push_back(std::move(row));
  return record;
}

TEST(RunStore, AppendReloadLatestLabelWins) {
  const std::string path = tempPath("run_store.jsonl");
  std::remove(path.c_str());
  const obs::RunStore store(path);

  ASSERT_TRUE(store.append(makeRecord("main", "aaaa111", 1.0, 100)));
  ASSERT_TRUE(store.append(makeRecord("pr", "bbbb222", 1.5, 140)));
  ASSERT_TRUE(store.append(makeRecord("main", "cccc333", 0.9, 90)));

  const std::vector<obs::RunRecord> all = store.loadAll();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].git_sha, "aaaa111");
  EXPECT_EQ(all[0].engine, "revised");
  EXPECT_EQ(all[0].rows.size(), 1u);
  EXPECT_DOUBLE_EQ(all[0].rows[0].value("wall_seconds"), 1.0);

  // findLabel returns the LATEST record of a label (appends supersede).
  const auto latest = store.findLabel("main");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->git_sha, "cccc333");
  EXPECT_FALSE(store.findLabel("nonexistent").has_value());
  std::remove(path.c_str());
}

TEST(RunStore, DiffDetectsRegressionAboveThreshold) {
  const obs::RunRecord base = makeRecord("base", "a", 1.0, 100);
  const obs::RunRecord slower = makeRecord("cur", "b", 1.25, 104);

  obs::DiffThresholds thresholds;  // 10%, {wall_seconds, simplex_iterations}
  const obs::RunDiff diff = obs::diffRuns(base, slower, thresholds);
  ASSERT_EQ(diff.common_rows, 1);
  ASSERT_EQ(diff.rows.size(), 2u);  // one per metric
  EXPECT_TRUE(diff.anyRegression());
  EXPECT_EQ(diff.regressions, 1);  // wall +25% regresses, iterations +4% not
  const obs::RowDiff& wall = diff.rows[0].metric == "wall_seconds"
                                 ? diff.rows[0]
                                 : diff.rows[1];
  EXPECT_TRUE(wall.regressed);
  EXPECT_NEAR(wall.pct, 25.0, 1e-9);

  // Within threshold: no regression.
  const obs::RunDiff ok =
      obs::diffRuns(base, makeRecord("cur", "b", 1.05, 100), thresholds);
  EXPECT_FALSE(ok.anyRegression());
}

TEST(RunStore, DiffNoiseFloorAndInfinityAndAlignment) {
  obs::DiffThresholds thresholds;  // min_wall_seconds = 0.05

  // Both sides under the wall noise floor: a 2x blowup is still jitter.
  const obs::RunDiff noise = obs::diffRuns(makeRecord("b", "a", 0.010, 50),
                                           makeRecord("c", "b", 0.020, 50),
                                           thresholds);
  EXPECT_FALSE(noise.anyRegression());

  // Zero baseline growing to nonzero: +inf percent, regressed (iterations
  // have no noise floor).
  const obs::RunDiff inf = obs::diffRuns(makeRecord("b", "a", 0.5, 0),
                                         makeRecord("c", "b", 0.5, 10),
                                         thresholds);
  ASSERT_TRUE(inf.anyRegression());
  bool saw_inf = false;
  for (const obs::RowDiff& row : inf.rows)
    if (row.metric == "simplex_iterations") {
      EXPECT_TRUE(std::isinf(row.pct));
      EXPECT_TRUE(row.regressed);
      saw_inf = true;
    }
  EXPECT_TRUE(saw_inf);

  // Rows present on only one side are ignored — they cannot regress.
  obs::RunRecord extra = makeRecord("cur", "b", 99.0, 9999);
  extra.rows[0].name = "only_in_current";
  const obs::RunDiff disjoint =
      obs::diffRuns(makeRecord("base", "a", 1.0, 100), extra, thresholds);
  EXPECT_EQ(disjoint.common_rows, 0);
  EXPECT_TRUE(disjoint.rows.empty());
  EXPECT_FALSE(disjoint.anyRegression());
}

TEST(RunStore, DiffZeroBaseZeroCurrentComparesEqual) {
  // 0 -> 0 is equal, pct 0, never a regression — delta-resolve bench rows
  // legitimately report 0 for counters a warm repair never touches, and a
  // 0 -> 0 row must not read as an infinite blowup. 0 -> positive stays
  // +inf / regressed (previous test); this pins the other half.
  obs::DiffThresholds thresholds;
  const obs::RunDiff same = obs::diffRuns(makeRecord("b", "a", 0.5, 0),
                                          makeRecord("c", "b", 0.5, 0),
                                          thresholds);
  EXPECT_FALSE(same.anyRegression());
  bool saw_iterations = false;
  for (const obs::RowDiff& row : same.rows)
    if (row.metric == "simplex_iterations") {
      EXPECT_DOUBLE_EQ(row.pct, 0.0);
      EXPECT_FALSE(row.regressed);
      EXPECT_FALSE(std::isinf(row.pct));
      saw_iterations = true;
    }
  EXPECT_TRUE(saw_iterations);
}

TEST(RunStore, BenchDocConvertsToComparableRecord) {
  const auto doc = obs::json::parse(R"({
    "schema": "pdw-bench-1",
    "label": "baseline",
    "engine": "revised",
    "benchmarks": [
      {"name": "knapsack_small", "wall_seconds": 0.5,
       "simplex_iterations": 120, "nodes": 7}
    ]
  })");
  ASSERT_TRUE(doc.has_value());
  const auto record = obs::runRecordFromBenchDoc(*doc);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->label, "baseline");
  ASSERT_EQ(record->rows.size(), 1u);
  EXPECT_EQ(record->rows[0].name, "knapsack_small");
  EXPECT_DOUBLE_EQ(record->rows[0].value("wall_seconds"), 0.5);
  EXPECT_DOUBLE_EQ(record->rows[0].value("simplex_iterations"), 120.0);
  EXPECT_DOUBLE_EQ(record->rows[0].value("nodes"), 7.0);

  // The converted record diffs cleanly against a live run row using the
  // same value keys — this is the tier1 `--against BENCH_ilp.json` path.
  const obs::RunDiff diff =
      obs::diffRuns(*record, makeRecord("cur", "b", 0.52, 121), {});
  EXPECT_EQ(diff.common_rows, 1);
  EXPECT_FALSE(diff.anyRegression());
}

// ---- solver integration: slow-solve threshold trigger --------------------

TEST(FlightSolver, SlowSolveThresholdTriggersValidDump) {
  const std::string path = tempPath("flight_slow.jsonl");
  std::remove(path.c_str());

  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary (branches for sure).
  ilp::Model m;
  const ilp::VarId a = m.addBinary("a");
  const ilp::VarId b = m.addBinary("b");
  const ilp::VarId c = m.addBinary("c");
  m.addLessEqual(
      3.0 * ilp::LinExpr(a) + 4.0 * ilp::LinExpr(b) + 2.0 * ilp::LinExpr(c),
      6);
  m.setObjective(-10.0 * ilp::LinExpr(a) - 13.0 * ilp::LinExpr(b) -
                 7.0 * ilp::LinExpr(c));

  ilp::SolveParams params;
  params.time_limit_seconds = 10.0;
  params.flight.enabled = true;
  params.flight.path = path;
  params.flight.dump_all = false;
  params.flight.dump_on_limit = false;
  params.flight.slow_solve_seconds = 0.0;  // any wall > 0 counts as slow

  const ilp::Solution s = ilp::solve(m, params);
  ASSERT_EQ(s.status, ilp::SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -20.0, 1e-6);

  const std::vector<std::string> lines = readLines(path);
  ASSERT_FALSE(lines.empty()) << "slow-solve threshold produced no dump";
  const auto header = obs::json::parse(lines[0]);
  ASSERT_TRUE(header && header->isObject());
  EXPECT_EQ(header->find("type")->string, "solve");
  EXPECT_EQ(header->find("schema")->string, "pdw-flight-1");
  EXPECT_EQ(header->find("status")->string, "Optimal");
  const obs::json::Value* counts = header->find("counts");
  ASSERT_TRUE(counts && counts->isObject());
  EXPECT_GE(counts->find("solve_begin")->number, 1.0);
  EXPECT_GE(counts->find("node_open")->number, 1.0);

  // A threshold-only config with an impossible threshold must stay silent.
  std::remove(path.c_str());
  params.flight.slow_solve_seconds = 1e9;
  const ilp::Solution s2 = ilp::solve(m, params);
  ASSERT_EQ(s2.status, ilp::SolveStatus::Optimal);
  EXPECT_TRUE(readLines(path).empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pdw
