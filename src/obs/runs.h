// pdw::obs — structured run-record store (`pdw-run-1`).
//
// A durable, diffable record of every benchmark run, in the spirit of
// TCPSPSuite's db/ result store: an append-only JSONL file where each line
// is one complete run record — label, git SHA, build description, LP engine
// name, SolverConfig fingerprint, a full metrics-registry snapshot, and one
// row of named numeric values per benchmark. The bench binaries append via
// `--run-store=FILE`; `tools/pdw_report` loads two labels (or a label vs a
// frozen `pdw-bench-1` document) and prints a regression/improvement table
// with a machine-readable exit code.
//
// Rows carry an open-ended `values` map instead of a fixed struct so every
// bench family (solver benches, Table-II metrics, pipeline stage timings)
// stores what it measures and the comparator (`diffRuns`) aligns rows by
// name and diffs whatever metrics the caller asks for. All tracked metrics
// are lower-is-better.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace pdw::obs::json {
struct Value;
}

namespace pdw::obs {

/// One benchmark row of a run record.
struct RunRow {
  std::string name;
  std::string family;  ///< "synthetic" | "pipeline" | "table2" | ...
  std::map<std::string, double> values;

  double value(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? 0.0 : it->second;
  }
};

/// One appended line of a `pdw-run-1` store.
struct RunRecord {
  std::string label;
  std::string bench;      ///< producing binary ("bench_ilp_solver", ...)
  std::string timestamp;  ///< ISO-8601 UTC, informational only
  std::string git_sha;
  std::string build;      ///< build type + compiler ("RelWithDebInfo GNU 13")
  std::string engine;     ///< LP backend name
  std::string config;     ///< SolverConfig / SolveParams fingerprint
  bool quick = false;
  std::vector<RunRow> rows;
  /// Full registry snapshot at record time (may be empty for synthetic or
  /// baseline-converted records).
  MetricsSnapshot metrics;

  /// One JSONL line (no trailing newline).
  std::string toJson() const;
  static std::optional<RunRecord> fromJson(const json::Value& doc);
};

class RunStore {
 public:
  explicit RunStore(std::string path) : path_(std::move(path)) {}

  /// Append `record` as one line. False on I/O failure.
  bool append(const RunRecord& record) const;

  /// Every parseable record, in file order (malformed lines are skipped).
  std::vector<RunRecord> loadAll() const;

  /// Latest record carrying `label`; nullopt when absent.
  std::optional<RunRecord> findLabel(const std::string& label) const;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Convert a frozen `pdw-bench-1` document (bench_ilp_solver --json-out /
/// BENCH_ilp.json) into a pseudo run record so the comparator can diff a
/// run against the committed baseline. Nullopt when the schema tag or the
/// benchmarks array is missing.
std::optional<RunRecord> runRecordFromBenchDoc(const json::Value& doc);

// ---- comparator ----------------------------------------------------------

struct DiffThresholds {
  /// A row regresses when a compared metric grows by more than this many
  /// percent over the baseline (all tracked metrics are lower-is-better).
  double max_regression_pct = 10.0;
  /// Metrics compared per row pair (missing-on-either-side keys are
  /// skipped). `nodes` gates branch-and-bound tree growth: a search-order
  /// or cut regression can balloon the tree long before wall-clock shows
  /// it on a fast machine (rows that never branch diff 0 vs 0, never
  /// regress).
  std::vector<std::string> metrics = {"wall_seconds", "simplex_iterations",
                                      "nodes"};
  /// Wall-clock readings where both sides sit under this many seconds are
  /// noise, not signal — such pairs never regress (other metrics compare
  /// exactly).
  double min_wall_seconds = 0.05;
};

struct RowDiff {
  std::string name;
  std::string metric;
  double base = 0.0;
  double current = 0.0;
  /// (current - base) / base * 100. A zero base is special-cased: 0 -> 0
  /// compares equal (pct 0, never a regression — delta-resolve runs
  /// legitimately report 0 cold nodes), 0 -> positive is +inf.
  double pct = 0.0;
  bool regressed = false;
};

struct RunDiff {
  std::vector<RowDiff> rows;  ///< row-major: every (common row, metric) pair
  int common_rows = 0;
  int regressions = 0;
  bool anyRegression() const { return regressions > 0; }
};

/// Align `current` against `base` by row name and diff the configured
/// metrics. Rows present on only one side are ignored (they cannot regress).
RunDiff diffRuns(const RunRecord& base, const RunRecord& current,
                 const DiffThresholds& thresholds = {});

// ---- environment stamps --------------------------------------------------

/// Current git HEAD (short SHA) of the working directory, "unknown" when
/// git or the repository is unavailable. PDW_GIT_SHA overrides (CI).
std::string currentGitSha();

/// Compile-time build description ("RelWithDebInfo GNU 13.2.0").
std::string buildDescription();

/// Current wall-clock time as ISO-8601 UTC ("2026-08-09T12:34:56Z").
std::string timestampUtc();

}  // namespace pdw::obs
