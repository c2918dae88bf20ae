// Shared pieces of the fixed-work benchmark binary (see README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "assay/benchmarks.h"
#include "synth/synthesizer.h"

namespace perfbench {

namespace assay = pdw::assay;
namespace synth = pdw::synth;

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- fixed-work budget ---------------------------------------------------
// Every ILP stops on a node cap, never on the clock: the wall-clock limit
// is set far beyond anything a run reaches (a whole run takes under a
// minute), so plans, node counts and iteration counts repeat exactly and
// every timing measures the code on the same work.
inline constexpr double kClockLimitS = 1000.0;
/// A solve whose wall time reaches this share of kClockLimitS fails the run
/// (the smallest per-phase limit of the scheduling ILP is 0.4 of it).
inline constexpr double kGuardShare = 0.25;
/// Node cap of every wash-path ILP solve. The scheduling MILP's cap is set
/// per workload (cold.cpp, online.cpp).
inline constexpr std::int64_t kPathNodes = 500;
/// The traced run's layer self times must sum to its wall within this
/// share (ledger closure).
inline constexpr double kLedgerTolerance = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One Table-II instance: the graph (owned by `benchmark`) and the chip and
/// base schedule synthesized from it. The schedule points into the graph
/// and the chip.
struct Instance {
  assay::Benchmark benchmark;
  synth::SynthResult synth;
};

/// Synthesize every instance of `ids` once, in order.
std::vector<std::unique_ptr<Instance>> synthesizeAll(
    const std::vector<assay::BenchmarkId>& ids);

/// Set-up timing: synthesize `ids` `rounds` times; returns each round's
/// milliseconds. A round is milliseconds long, so callers take the median
/// of many rounds spread over the run.
std::vector<double> synthesisRoundsMs(
    const std::vector<assay::BenchmarkId>& ids, int rounds);

/// Deterministic generator for the workload inputs (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}
double sum(const std::vector<double>& values);
/// num / den, or 0 when nothing was counted.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Peak resident set of this process (VmHWM) in MiB.
double peakRssMb();

/// The result line of one run. Workloads set every metric of the mode they
/// run in; print() refuses to emit an incomplete or unknown metric set.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void set(const std::string& name, double value) { values_[name] = value; }
  /// Metrics of a layer the workload does not exercise read 0.
  void notExercised(const std::vector<std::string>& names) {
    for (const std::string& n : names) values_[n] = 0.0;
  }
  /// Record a correctness failure (printed to stderr; the run reports
  /// correct:false).
  void fail(const std::string& why);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Print the JSON result line to stdout. Returns false (printing
  /// nothing) if the metric set is not exactly the mode's declared set.
  bool print() const;

 private:
  bool trace_;
  bool correct_ = true;
  std::map<std::string, double> values_;
};

/// Registry counters read by name (process-wide totals; callers diff them).
std::int64_t counterValue(const char* name);
/// Sum of a registry histogram (seconds for the pipeline stage histograms).
double histogramSum(const char* name);

/// Layer self times of the traced run and the wall they must add up to.
struct Ledger {
  std::map<std::string, double> self_ms;
  double wall_ms = 0.0;

  double unattributedShare() const;
  /// Check closure against kLedgerTolerance; on failure records it in
  /// `report`. Also prints the ledger to stderr.
  void close(Report& report) const;
};

int runCold(const Args& args, Report& report);
int runOnline(const Args& args, Report& report);

}  // namespace perfbench
