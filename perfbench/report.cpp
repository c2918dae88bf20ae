#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <string>

#include "obs/metrics.h"
#include "perfbench.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer", in order).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"wall_s", "s"},
    {"ops_per_s", "1/s"},    {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},     {"n_wash", "count"},
    {"l_wash_mm", "mm"},     {"t_assay_s", "assay_s"},
    {"pass_frac", "ratio"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"synth.synthesize_ms", "ms"},
    {"wash.necessity_ms", "ms"},
    {"wash.targets", "count"},
    {"wash.cluster_ms", "ms"},
    {"wash.operations", "count"},
    {"core.route.ms", "ms"},
    {"core.route.ops", "count"},
    {"core.route.op_p50_ms", "ms"},
    {"core.route.op_max_ms", "ms"},
    {"core.route.ilp_solves", "count"},
    {"core.route.cut_rounds", "count"},
    {"core.route.fallbacks", "count"},
    {"core.route.nodes", "count"},
    {"core.route.iterations", "count"},
    {"core.schedule.ms", "ms"},
    {"core.schedule.nodes", "count"},
    {"core.schedule.iterations", "count"},
    {"core.schedule.dual_pivots", "count"},
    {"core.schedule.refactorizations", "count"},
    {"core.schedule.us_per_iteration", "us"},
    {"core.schedule.iterations_per_node", "ratio"},
    {"core.schedule.warm_hit_ratio", "ratio"},
    {"core.schedule.cuts_added", "count"},
    {"core.schedule.optimal", "count"},
    {"core.schedule.greedy_fallbacks", "count"},
    {"core.resolve.frontier_share", "ratio"},
    {"core.resolve.routes_reused", "count"},
    {"core.resolve.full_fallbacks", "count"},
    {"core.resolve.greedy_fallbacks", "count"},
    {"core.route_cache.hit_ratio", "ratio"},
    {"service.parse_us", "us"},
    {"service.serialize_us", "us"},
    {"service.queue_ms_p50", "ms"},
    {"service.plan_cache.hit_ratio", "ratio"},
    {"service.errors", "count"},
    {"service.hit_p50_ms", "ms"},
    {"service.hit_p99_ms", "ms"},
    {"service.resolve_p50_ms", "ms"},
    {"service.resolve_p90_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"ledger.unattributed_frac", "ratio"},
};

}  // namespace

std::vector<std::unique_ptr<Instance>> synthesizeAll(
    const std::vector<assay::BenchmarkId>& ids) {
  std::vector<std::unique_ptr<Instance>> out;
  for (assay::BenchmarkId id : ids) {
    auto inst = std::make_unique<Instance>();
    inst->benchmark = assay::makeBenchmark(id);
    inst->synth = synth::synthesize(*inst->benchmark.graph);
    out.push_back(std::move(inst));
  }
  return out;
}

std::vector<double> synthesisRoundsMs(
    const std::vector<assay::BenchmarkId>& ids, int rounds) {
  std::vector<double> out;
  for (int r = 0; r < rounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    const auto built = synthesizeAll(ids);
    out.push_back(msBetween(t0, Clock::now()));
  }
  return out;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  }
  return 0.0;
}

void Report::fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
}

bool Report::print() const {
  std::set<std::string> expected;
  std::string body;
  char buf[64];
  for (const MetricSpec& m : trace_ ? std::span<const MetricSpec>(kPerLayer)
                                    : std::span<const MetricSpec>(kEndToEnd)) {
    expected.insert(m.name);
    const auto it = values_.find(m.name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   m.name);
      return false;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", it->second);
    if (!body.empty()) body += ", ";
    body += std::string("\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const auto& [name, value] : values_) {
    if (!expected.count(name)) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
      return false;
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct_ && failed == 0 ? "true" : "false",
      static_cast<long long>(attempted), static_cast<long long>(failed),
      body.c_str());
  std::fflush(stdout);
  return true;
}

std::int64_t counterValue(const char* name) {
  return pdw::obs::Registry::instance().counter(name).value();
}

double histogramSum(const char* name) {
  return pdw::obs::Registry::instance().histogram(name).sum();
}

double Ledger::unattributedShare() const {
  double attributed = 0.0;
  for (const auto& [layer, ms] : self_ms) attributed += ms;
  return wall_ms > 0.0 ? 1.0 - attributed / wall_ms : 0.0;
}

void Ledger::close(Report& report) const {
  for (const auto& [layer, ms] : self_ms)
    std::fprintf(stderr, "perfbench: ledger %-14s %10.3f ms (%5.1f%%)\n",
                 layer.c_str(), ms, wall_ms > 0 ? 100.0 * ms / wall_ms : 0.0);
  const double rest = unattributedShare();
  std::fprintf(stderr, "perfbench: ledger wall %.3f ms, unattributed %.4f\n",
               wall_ms, rest);
  if (std::fabs(rest) > kLedgerTolerance)
    report.fail("ledger does not close: unattributed share " +
                std::to_string(rest) + " exceeds " +
                std::to_string(kLedgerTolerance));
}

}  // namespace perfbench
