// Substrate bench: scaling behaviour of the from-scratch MILP solver that
// replaces Gurobi in this reproduction.
//
// Two modes:
//  * google-benchmark microbenchmarks (default): dense LPs, 0-1 knapsacks,
//    and big-M disjunctive scheduling models (the structure of the paper's
//    eqs. 3/8/19/20).
//  * --json-out=<path>: one timed solve per instance plus the Table-II
//    pipeline benchmarks (node-capped, so their work is fixed), emitting a
//    `pdw-bench-1` JSON document with per-benchmark wall time, node counts,
//    simplex iterations and the warm-dual hit rate. scripts/tier1.sh
//    validates the document with tools/obs_check; BENCH_ilp.json at the
//    repo root holds the committed perf baseline this series is measured
//    against.
//
//      bench_ilp_solver --json-out=out.json [--quick] [--label=NAME]
//                       [--no-cuts]   # pre-cuts solver config (baselines)
//
// Both modes additionally accept the shared observability flags
// (bench_common.h): --run-store=FILE appends a `pdw-run-1` record for
// tools/pdw_report, --trace-out / --metrics-out export the trace and the
// metrics registry, --flight-out dumps every solve's flight recording.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "assay/benchmarks.h"
#include "bench_common.h"
#include "core/pipeline.h"
#include "ilp/lp_backend.h"
#include "ilp/solver.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace {

using namespace pdw;

/// LP backend under measurement ("" = library default). Set by --engine;
/// stamped into the pdw-bench-1 document so baselines are comparable only
/// within one engine.
std::string g_engine;  // NOLINT(runtime/string)

/// Flight-recorder config applied to every measured solve (disabled unless
/// --flight-out was given).
obs::FlightConfig g_flight;

/// --no-cuts: run every solve with the pre-cuts solver configuration (root
/// cutting planes, probing presolve, coefficient tightening and pseudocost
/// branching all off). Used to record the frozen "pre-cuts" baseline label
/// the cut series is measured against.
bool g_no_cuts = false;

void applyPreCuts(ilp::SolveParams* p) {
  p->cuts.enabled = false;
  p->probing = false;
  p->coef_tightening = false;
  p->branch_rule = ilp::BranchRule::MostFractional;
}

ilp::SolveParams benchParams() {
  ilp::SolveParams p;
  p.engine = g_engine;
  p.time_limit_seconds = 5.0;  // best-effort cap per solve
  p.log_progress = false;
  p.flight = g_flight;
  if (g_no_cuts) applyPreCuts(&p);
  return p;
}

/// Budgets of the Table-II pipeline rows: node caps under a clock limit no
/// solve reaches (the caps of perfbench's cold-schedule workload). Every
/// row's nodes and simplex iterations are then fixed by the work, and its
/// wall time measures engine speed rather than the clock.
constexpr double kPipelineClockS = 1000.0;
constexpr std::int64_t kPipelineScheduleNodes = 400;
constexpr std::int64_t kPipelinePathNodes = 500;

// ---- shared model builders (used by both modes) --------------------------

ilp::Model makeLpDense(int n) {
  util::Rng rng(42);
  ilp::Model model;
  std::vector<ilp::VarId> vars;
  for (int j = 0; j < n; ++j)
    vars.push_back(model.addContinuous(0, 10));
  for (int i = 0; i < n; ++i) {
    ilp::LinExpr row;
    for (int j = 0; j < n; ++j)
      row += (1.0 + rng.uniform()) *
             ilp::LinExpr(vars[static_cast<std::size_t>(j)]);
    model.addLessEqual(row, 5.0 * n);
  }
  ilp::LinExpr objective;
  for (ilp::VarId v : vars) objective += -1.0 * ilp::LinExpr(v);
  model.setObjective(objective);
  return model;
}

ilp::Model makeKnapsack(int n) {
  util::Rng rng(7);
  ilp::Model model;
  ilp::LinExpr weight, value;
  double capacity = 0;
  for (int j = 0; j < n; ++j) {
    const ilp::VarId v = model.addBinary();
    const double w = rng.intIn(1, 20);
    weight += w * ilp::LinExpr(v);
    value += rng.intIn(1, 30) * ilp::LinExpr(v);
    capacity += w;
  }
  model.addLessEqual(weight, capacity * 0.4);
  model.setObjective(-1.0 * value);
  return model;
}

ilp::Model makeDisjunctiveScheduling(int n) {
  // n tasks on one resource: the big-M structure of the paper's
  // conflict-serialization constraints.
  util::Rng rng(13);
  constexpr double kBigM = 1000.0;
  ilp::Model model;
  std::vector<ilp::VarId> start;
  std::vector<double> duration;
  const ilp::VarId makespan = model.addContinuous(0, kBigM);
  for (int i = 0; i < n; ++i) {
    start.push_back(model.addContinuous(0, kBigM));
    duration.push_back(rng.intIn(1, 6));
    model.addGreaterEqual(
        ilp::LinExpr(makespan) - ilp::LinExpr(start.back()), duration.back());
  }
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      const ilp::VarId order = model.addBinary();
      model.addGreaterEqual(
          ilp::LinExpr(start[static_cast<std::size_t>(j)]) -
              ilp::LinExpr(start[static_cast<std::size_t>(i)]) +
              kBigM * ilp::LinExpr(order),
          duration[static_cast<std::size_t>(i)]);
      model.addGreaterEqual(
          ilp::LinExpr(start[static_cast<std::size_t>(i)]) -
              ilp::LinExpr(start[static_cast<std::size_t>(j)]) -
              kBigM * ilp::LinExpr(order),
          duration[static_cast<std::size_t>(j)] - kBigM);
    }
  model.setObjective(ilp::LinExpr(makespan));
  return model;
}

// ---- google-benchmark mode ----------------------------------------------

void BM_LpDense(benchmark::State& state) {
  const ilp::Model model = makeLpDense(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ilp::Solution s = ilp::solve(model, benchParams());
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_LpDense)->Arg(10)->Arg(25)->Arg(50)->Arg(100);

void BM_MipKnapsack(benchmark::State& state) {
  const ilp::Model model = makeKnapsack(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ilp::Solution s = ilp::solve(model, benchParams());
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_MipKnapsack)->Arg(10)->Arg(15)->Arg(20)->Arg(30);

void BM_MipDisjunctiveScheduling(benchmark::State& state) {
  const ilp::Model model =
      makeDisjunctiveScheduling(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ilp::Solution s = ilp::solve(model, benchParams());
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_MipDisjunctiveScheduling)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

// ---- --json-out mode -----------------------------------------------------

/// One row of the pdw-bench-1 document.
struct BenchRecord {
  std::string name;
  std::string family;  // "synthetic" | "pipeline"
  double wall_seconds = 0.0;
  std::int64_t mip_solves = 0;
  std::int64_t nodes = 0;
  std::int64_t simplex_iterations = 0;
  std::int64_t warm_hits = 0;
  std::int64_t warm_misses = 0;
  std::int64_t dual_pivots = 0;
  std::int64_t rc_fixed = 0;

  double warmHitRate() const {
    const std::int64_t tried = warm_hits + warm_misses;
    return tried > 0 ? static_cast<double>(warm_hits) /
                           static_cast<double>(tried)
                     : 0.0;
  }
};

BenchRecord runSynthetic(const std::string& name, const ilp::Model& model) {
  BenchRecord rec;
  rec.name = name;
  rec.family = "synthetic";
  const auto start = std::chrono::steady_clock::now();
  const ilp::Solution s = ilp::solve(model, benchParams());
  rec.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  rec.mip_solves = 1;
  rec.nodes = s.stats.nodes_explored;
  rec.simplex_iterations = s.stats.simplex_iterations;
  rec.warm_hits = s.stats.warm_hits;
  rec.warm_misses = s.stats.warm_misses;
  rec.dual_pivots = s.stats.dual_pivots;
  rec.rc_fixed = s.stats.rc_fixed;
  return rec;
}

/// Run one Table-II benchmark through the full single-threaded pipeline and
/// charge the per-run `ilp.*` registry delta to the record — this covers
/// every MIP the stage solvers issue (schedule phases A/B + path ILPs).
BenchRecord runPipelineBenchmark(assay::BenchmarkId id) {
  obs::Registry& reg = obs::Registry::instance();
  const obs::MetricsSnapshot before = reg.snapshot();

  assay::Benchmark b = assay::makeBenchmark(id);
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));
  core::PdwOptions options = bench::defaultBenchOptions();
  options.withScheduleBudget(kPipelineClockS, kPipelineScheduleNodes)
      .withPathBudget(kPipelineClockS, kPipelinePathNodes)
      .withEngine(g_engine);
  options.solver.schedule.flight = g_flight;
  options.solver.path.flight = g_flight;
  if (g_no_cuts) {
    applyPreCuts(&options.solver.schedule);
    applyPreCuts(&options.solver.path);
  }
  options.num_threads = 1;  // sequential: canonical-lane solver numbers only
  Pipeline pipeline(options);
  const PdwResult result = pipeline.run(base.schedule);

  const obs::MetricsSnapshot delta = reg.snapshot().since(before);
  BenchRecord rec;
  rec.name = "table2_" + b.name;
  rec.family = "pipeline";
  rec.wall_seconds = result.timings.total_s;
  rec.mip_solves = delta.counter("ilp.bb.solves");
  rec.nodes = delta.counter("ilp.bb.nodes");
  rec.simplex_iterations = delta.counter("ilp.simplex.iterations");
  rec.warm_hits = delta.counter("ilp.simplex.warm_hits");
  rec.warm_misses = delta.counter("ilp.simplex.warm_misses");
  rec.dual_pivots = delta.counter("ilp.simplex.dual_pivots");
  rec.rc_fixed = delta.counter("ilp.bb.rc_fixed");
  return rec;
}

void appendRecord(std::ostringstream& out, const BenchRecord& r, bool first) {
  if (!first) out << ",\n";
  out << "    {\"name\": " << obs::json::quote(r.name)
      << ", \"family\": " << obs::json::quote(r.family)
      << ", \"wall_seconds\": " << r.wall_seconds
      << ", \"mip_solves\": " << r.mip_solves << ", \"nodes\": " << r.nodes
      << ", \"simplex_iterations\": " << r.simplex_iterations
      << ", \"warm_hits\": " << r.warm_hits
      << ", \"warm_misses\": " << r.warm_misses
      << ", \"dual_pivots\": " << r.dual_pivots
      << ", \"rc_fixed\": " << r.rc_fixed
      << ", \"warm_hit_rate\": " << r.warmHitRate() << "}";
}

int runJsonMode(const std::string& path, const bench::ObsArgs& obs_args,
                bool quick) {
  const std::string& label = obs_args.label;
  std::vector<BenchRecord> records;

  const std::vector<std::pair<std::string, ilp::Model>> synthetic = [&] {
    std::vector<std::pair<std::string, ilp::Model>> suite;
    suite.emplace_back("lp_dense_50", makeLpDense(50));
    suite.emplace_back("knapsack_20", makeKnapsack(20));
    if (!quick) {
      suite.emplace_back("lp_dense_100", makeLpDense(100));
      // The lp_dense_1000 family is the revised backend's headline: the
      // dense tableau cannot finish these within the per-solve budget.
      suite.emplace_back("lp_dense_300", makeLpDense(300));
      suite.emplace_back("lp_dense_1000", makeLpDense(1000));
      suite.emplace_back("knapsack_30", makeKnapsack(30));
      suite.emplace_back("disjunctive_5", makeDisjunctiveScheduling(5));
      suite.emplace_back("disjunctive_6", makeDisjunctiveScheduling(6));
    } else {
      suite.emplace_back("disjunctive_4", makeDisjunctiveScheduling(4));
    }
    return suite;
  }();
  for (const auto& [name, model] : synthetic) {
    std::fprintf(stderr, "bench_ilp_solver: %s\n", name.c_str());
    records.push_back(runSynthetic(name, model));
  }

  std::vector<assay::BenchmarkId> table2 = assay::allBenchmarks();
  if (quick && table2.size() > 2) table2.resize(2);
  for (assay::BenchmarkId id : table2) {
    BenchRecord rec = runPipelineBenchmark(id);
    std::fprintf(stderr, "bench_ilp_solver: %s\n", rec.name.c_str());
    records.push_back(std::move(rec));
  }

  BenchRecord totals;
  for (const BenchRecord& r : records) {
    totals.wall_seconds += r.wall_seconds;
    totals.mip_solves += r.mip_solves;
    totals.nodes += r.nodes;
    totals.simplex_iterations += r.simplex_iterations;
    totals.warm_hits += r.warm_hits;
    totals.warm_misses += r.warm_misses;
    totals.dual_pivots += r.dual_pivots;
    totals.rc_fixed += r.rc_fixed;
  }

  const std::string engine =
      g_engine.empty() ? ilp::defaultLpBackendName() : g_engine;

  // --run-store: append one pdw-run-1 record carrying the same rows (plus
  // the environment stamps and the registry snapshot) to the durable store.
  if (!obs_args.run_store.empty()) {
    obs::RunRecord record = bench::makeRunRecord(obs_args, "bench_ilp_solver");
    record.engine = engine;
    record.config = ilp::fingerprint(benchParams());
    record.quick = quick;
    for (const BenchRecord& r : records) {
      obs::RunRow row;
      row.name = r.name;
      row.family = r.family;
      row.values = {
          {"wall_seconds", r.wall_seconds},
          {"mip_solves", static_cast<double>(r.mip_solves)},
          {"nodes", static_cast<double>(r.nodes)},
          {"simplex_iterations", static_cast<double>(r.simplex_iterations)},
          {"warm_hits", static_cast<double>(r.warm_hits)},
          {"warm_misses", static_cast<double>(r.warm_misses)},
          {"dual_pivots", static_cast<double>(r.dual_pivots)},
          {"rc_fixed", static_cast<double>(r.rc_fixed)},
          {"warm_hit_rate", r.warmHitRate()},
      };
      record.rows.push_back(std::move(row));
    }
    if (!bench::appendRunRecord(obs_args, record)) return 1;
  }
  if (path.empty()) return 0;

  std::ostringstream out;
  out << "{\n  \"schema\": \"pdw-bench-1\",\n  \"label\": "
      << obs::json::quote(label) << ",\n  \"engine\": "
      << obs::json::quote(engine) << ",\n  \"quick\": "
      << (quick ? "true" : "false") << ",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i)
    appendRecord(out, records[i], i == 0);
  out << "\n  ],\n  \"totals\": {\"wall_seconds\": " << totals.wall_seconds
      << ", \"mip_solves\": " << totals.mip_solves
      << ", \"nodes\": " << totals.nodes
      << ", \"simplex_iterations\": " << totals.simplex_iterations
      << ", \"warm_hits\": " << totals.warm_hits
      << ", \"warm_misses\": " << totals.warm_misses
      << ", \"dual_pivots\": " << totals.dual_pivots
      << ", \"rc_fixed\": " << totals.rc_fixed
      << ", \"warm_hit_rate\": " << totals.warmHitRate() << "}\n}\n";

  std::ofstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "bench_ilp_solver: cannot write %s\n", path.c_str());
    return 1;
  }
  file << out.str();
  std::fprintf(stderr,
               "bench_ilp_solver: wrote %s (%zu benchmarks, %lld iterations, "
               "warm-hit rate %.2f)\n",
               path.c_str(), records.size(),
               static_cast<long long>(totals.simplex_iterations),
               totals.warmHitRate());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  bool quick = false;
  bench::ObsArgs obs_args;
  std::vector<char*> bench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (obs_args.consume(argc, argv, i)) continue;
    if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(std::strlen("--json-out="));
    } else if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg.rfind("--engine=", 0) == 0) {
      g_engine = arg.substr(std::strlen("--engine="));
    } else if (arg == "--engine" && i + 1 < argc) {
      g_engine = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--no-cuts") {
      g_no_cuts = true;
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  if (!g_engine.empty() && !ilp::isLpBackendName(g_engine)) {
    std::fprintf(stderr, "bench_ilp_solver: unknown --engine '%s'\n",
                 g_engine.c_str());
    return 2;
  }
  g_flight = obs_args.flightConfig();
  obs_args.applyStartup();
  if (!json_out.empty() || !obs_args.run_store.empty()) {
    const int rc = runJsonMode(json_out, obs_args, quick);
    obs_args.finish();
    return rc;
  }

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  obs_args.finish();
  return 0;
}
