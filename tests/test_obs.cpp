// pdw::obs — tracer, metrics registry, logging integration.
//
// The span-balance tests drive the full pipeline over every Table-II
// benchmark at 1 and 8 threads with tracing on and then replay the recorded
// event stream per thread: every 'E' must close the most recent 'B' on its
// thread and no span may be left open. Budgets mirror the determinism tests
// (BFS paths, node/iteration-bound solves — never wall-clock). The
// disabled-mode test counts global operator-new calls across a burst of
// span sites to pin down the "no allocation in the fast path" contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "assay/benchmarks.h"
#include "core/pipeline.h"
#include "ilp/basis_lu.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "util/logging.h"

// ---- global allocation counter (for the disabled-mode no-op test) --------
//
// Defining operator new/delete in any TU replaces them binary-wide; every
// other test is unaffected beyond a relaxed counter bump per allocation.

namespace {
std::atomic<long long> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// come from the same malloc as the deletes below, or a sanitizer's own
// nothrow new meets this file's free().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace pdw;
using assay::BenchmarkId;

/// Deterministic, cheap budgets (mirrors test_parallel_determinism.cpp):
/// BFS wash paths, node/iteration-bound scheduling solve.
core::PdwOptions cheapOptions(int threads) {
  core::PdwOptions options = core::PdwOptions{}
                                 .withThreads(threads)
                                 .withoutIlpPaths()
                                 .withScheduleBudget(1e6, 200);
  options.solver.schedule.simplex_iteration_limit = 1500;
  return options;
}

/// Replay `events` per thread: every E closes the most recent B of its
/// thread, and nothing is left open at the end.
void expectBalancedSpans(const std::vector<obs::TraceEvent>& events) {
  std::map<std::uint32_t, std::vector<std::string>> stacks;
  for (const obs::TraceEvent& e : events) {
    if (e.phase == 'B') {
      stacks[e.tid].push_back(e.name);
    } else if (e.phase == 'E') {
      auto& stack = stacks[e.tid];
      ASSERT_FALSE(stack.empty())
          << "unbalanced E '" << e.name << "' on tid " << e.tid;
      EXPECT_EQ(stack.back(), e.name) << "on tid " << e.tid;
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "tid " << tid << " left '" << stack.back()
                               << "' open";
}

class ObsSpanBalance : public ::testing::TestWithParam<BenchmarkId> {};

TEST_P(ObsSpanBalance, NestAndBalanceAt1And8Threads) {
  const assay::Benchmark b = assay::makeBenchmark(GetParam());
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));

  for (const int threads : {1, 8}) {
    obs::clearTrace();
    obs::setTracingEnabled(true);
    {
      // Scoped: the pool joins its workers in the destructor, so every
      // worker's open "task" span is closed before the snapshot below.
      Pipeline pipeline(cheapOptions(threads));
      pipeline.run(base.schedule);
    }
    obs::setTracingEnabled(false);
    const std::vector<obs::TraceEvent> events = obs::snapshotTraceEvents();
    ASSERT_FALSE(events.empty());
    expectBalancedSpans(events);

    int run_spans = 0, wash_ops = 0;
    for (const obs::TraceEvent& e : events) {
      if (e.phase != 'B') continue;
      if (e.name == "run") ++run_spans;
      if (e.name.rfind("wash_op#", 0) == 0) ++wash_ops;
    }
    EXPECT_EQ(run_spans, 1) << "threads=" << threads;
    EXPECT_GE(wash_ops, 1) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ObsSpanBalance,
    ::testing::ValuesIn(assay::allBenchmarks()),
    [](const ::testing::TestParamInfo<BenchmarkId>& info) {
      std::string name = assay::toString(info.param);
      for (char& c : name)
        if (c == ' ' || c == '-') c = '_';
      return name;
    });

TEST(ObsTrace, ExportRoundTripsThroughParser) {
  obs::clearTrace();
  obs::setTracingEnabled(true);
  obs::setThreadName("round-trip");
  {
    PDW_TRACE_SPAN("test", "outer");
    {
      PDW_TRACE_SPAN_ID("test", "inner", 42);
      PDW_TRACE_INSTANT("test", "marker \"quoted\"");
    }
  }
  obs::setTracingEnabled(false);

  const std::string text = obs::exportTraceJson();
  const auto doc = obs::json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  ASSERT_TRUE(doc->isObject());
  const obs::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());

  int begins = 0, ends = 0, instants = 0;
  bool saw_inner = false, saw_marker = false, saw_thread_name = false;
  for (const obs::json::Value& e : events->array) {
    const std::string& ph = e.find("ph")->string;
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
    if (ph == "i") ++instants;
    if (ph == "M") {
      saw_thread_name = true;
      continue;
    }
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_TRUE(e.find("ts")->isNumber());
    ASSERT_NE(e.find("tid"), nullptr);
    const obs::json::Value* name = e.find("name");
    ASSERT_NE(name, nullptr);
    if (name->string == "inner#42") saw_inner = true;
    if (name->string == "marker \"quoted\"") saw_marker = true;
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_EQ(instants, 1);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_marker);  // exercises JSON escaping both ways
  EXPECT_TRUE(saw_thread_name);
  const obs::json::Value* unit = doc->find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string, "ms");
}

TEST(ObsTrace, ConcurrentRecordingAndExport) {
  obs::clearTrace();
  obs::setTracingEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 400;
  std::atomic<bool> stop{false};

  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t)
    recorders.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        PDW_TRACE_SPAN("test", "work");
        PDW_TRACE_INSTANT("test", "tick");
      }
    });
  // Export concurrently with the recording: collectors must only ever see
  // fully-published events — each snapshot is a clean per-thread prefix
  // (every E closes a B; trailing open spans are fine mid-recording).
  std::thread exporter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<obs::TraceEvent> prefix = obs::snapshotTraceEvents();
      std::map<std::uint32_t, int> depth;
      for (const obs::TraceEvent& e : prefix) {
        if (e.phase == 'B') ++depth[e.tid];
        if (e.phase == 'E') {
          --depth[e.tid];
          ASSERT_GE(depth[e.tid], 0) << "E before its B on tid " << e.tid;
        }
      }
      (void)obs::exportTraceJson();
    }
  });

  for (std::thread& r : recorders) r.join();
  stop.store(true, std::memory_order_release);
  exporter.join();
  obs::setTracingEnabled(false);

  const std::vector<obs::TraceEvent> events = obs::snapshotTraceEvents();
  int begins = 0, ends = 0, instants = 0;
  for (const obs::TraceEvent& e : events) {
    begins += e.phase == 'B';
    ends += e.phase == 'E';
    instants += e.phase == 'i';
  }
  EXPECT_EQ(begins, kThreads * kSpansPerThread);
  EXPECT_EQ(ends, kThreads * kSpansPerThread);
  EXPECT_EQ(instants, kThreads * kSpansPerThread);
  expectBalancedSpans(events);
}

TEST(ObsTrace, DisabledModeRecordsNothing) {
  obs::clearTrace();
  obs::setTracingEnabled(false);
  {
    PDW_TRACE_SPAN("test", "invisible");
    PDW_TRACE_INSTANT("test", "also_invisible");
  }
  EXPECT_TRUE(obs::snapshotTraceEvents().empty());
}

TEST(ObsTrace, DisabledSpanSiteDoesNotAllocate) {
  obs::setTracingEnabled(false);
  // Warm the singletons (first touch allocates the leaked state objects).
  (void)obs::tracingEnabled();
  obs::Registry::instance().counter("obs_test.warm").increment();

  const long long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    PDW_TRACE_SPAN("test", "off");
    PDW_TRACE_SPAN_ID("test", "off_id", i);
    PDW_TRACE_INSTANT("test", "off_instant");
    obs::Registry::instance().counter("obs_test.warm").add(1);
  }
  const long long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "disabled span sites / cached counter handles must not allocate";
}

// ---- metrics registry ----------------------------------------------------

TEST(ObsMetrics, CounterGaugeHistogramBasics) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& c = reg.counter("obs_test.counter");
  const std::int64_t base = c.value();
  c.increment();
  c.add(4);
  EXPECT_EQ(c.value(), base + 5);

  obs::Gauge& g = reg.gauge("obs_test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  obs::Histogram& h = reg.histogram("obs_test.histogram");
  h.reset();
  h.observe(0.5);   // bucket 0: < 1
  h.observe(3.0);   // bucket 2: [2, 4)
  h.observe(3.9);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 7.4);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 3.9);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(2), 2);

  // Same name, same handle — the stability call sites rely on.
  EXPECT_EQ(&c, &reg.counter("obs_test.counter"));
}

TEST(ObsMetrics, RegistryIsConcurrencySafe) {
  obs::Registry& reg = obs::Registry::instance();
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  const std::int64_t counter_base = reg.counter("obs_test.mt.counter").value();
  const std::int64_t histo_base =
      reg.histogram("obs_test.mt.histogram").count();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        // Find-or-create races on the same names on purpose.
        reg.counter("obs_test.mt.counter").increment();
        reg.gauge("obs_test.mt.gauge").set(static_cast<double>(t));
        reg.histogram("obs_test.mt.histogram")
            .observe(static_cast<double>(i % 7));
        if (i % 512 == 0) (void)reg.snapshot();
      }
    });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(reg.counter("obs_test.mt.counter").value(),
            counter_base + static_cast<std::int64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram("obs_test.mt.histogram").count(),
            histo_base + static_cast<std::int64_t>(kThreads) * kIters);
}

TEST(ObsMetrics, SnapshotDeltaSemantics) {
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("obs_test.delta.counter").add(10);
  reg.histogram("obs_test.delta.histogram").observe(2.0);
  const obs::MetricsSnapshot before = reg.snapshot();

  reg.counter("obs_test.delta.counter").add(7);
  reg.gauge("obs_test.delta.gauge").set(1.25);
  reg.histogram("obs_test.delta.histogram").observe(8.0);
  const obs::MetricsSnapshot delta = reg.snapshot().since(before);

  EXPECT_EQ(delta.counter("obs_test.delta.counter"), 7);
  EXPECT_DOUBLE_EQ(delta.gauge("obs_test.delta.gauge"), 1.25);
  const auto it = delta.values.find("obs_test.delta.histogram");
  ASSERT_NE(it, delta.values.end());
  EXPECT_EQ(it->second.count, 1);  // one new observation
  EXPECT_DOUBLE_EQ(it->second.value, 8.0);
  EXPECT_EQ(delta.counter("obs_test.never_registered"), 0);

  // The JSON export parses and carries the schema tag.
  const auto doc = obs::json::parse(delta.toJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->string, "pdw-metrics-1");
  EXPECT_NE(doc->find("metrics")->find("obs_test.delta.counter"), nullptr);
}

TEST(ObsMetrics, PipelineResultCarriesRunDelta) {
  const assay::Benchmark b = assay::makeBenchmark(BenchmarkId::Pcr);
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));
  Pipeline pipeline(cheapOptions(1));
  const PdwResult r = pipeline.run(base.schedule);

  // The metrics snapshot is this run's contribution, and the legacy stat
  // struct fields are views over it.
  EXPECT_GT(r.metrics.counter("pdw.necessity.targets"), 0);
  EXPECT_GT(r.metrics.counter("ilp.simplex.calls"), 0);
  EXPECT_EQ(r.metrics.counter("pdw.path_ilp.solves"),
            r.solver.path_ilp_solves);  // BFS-only run: both zero
  EXPECT_EQ(r.metrics.counter("pdw.cluster.operations"),
            r.wash_operations);
  EXPECT_EQ(r.metrics.counter("pdw.route_cache.misses"), r.cache.misses);

  // A second run's delta counts only its own work (cache hits, no misses).
  const PdwResult r2 = pipeline.run(base.schedule);
  EXPECT_EQ(r2.metrics.counter("pdw.route_cache.misses"), 0);
  EXPECT_GT(r2.metrics.counter("pdw.route_cache.hits"), 0);
}

TEST(ObsMetrics, LuFactorSecondsObservesEveryFactorization) {
  obs::Histogram& h =
      obs::Registry::instance().histogram(obs::names::kLuFactorSeconds);
  const std::int64_t before = h.count();
  // Three outcomes, one observation each: a sparse factorization, a
  // singular rejection and the empty basis.
  std::vector<ilp::BasisLu::SparseColumn> cols(3);
  cols[0] = {{0, 2.0}, {2, 1.0}};
  cols[1] = {{1, 1.0}};
  cols[2] = {{2, 4.0}};
  ilp::BasisLu lu;
  ASSERT_TRUE(lu.factor(3, cols));
  cols[2].clear();
  EXPECT_FALSE(lu.factor(3, cols));
  EXPECT_TRUE(lu.factor(0, {}));
  EXPECT_EQ(h.count(), before + 3);
  EXPECT_GE(h.min(), 0.0);

  // A pipeline run's delta carries at least one factorization per
  // refactorization the canonical simplex lane counted.
  const assay::Benchmark b = assay::makeBenchmark(BenchmarkId::Pcr);
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));
  Pipeline pipeline(cheapOptions(1));
  const PdwResult r = pipeline.run(base.schedule);
  const auto it = r.metrics.values.find(obs::names::kLuFactorSeconds);
  ASSERT_NE(it, r.metrics.values.end());
  EXPECT_EQ(it->second.kind, obs::MetricValue::Kind::Histogram);
  EXPECT_GT(it->second.count, 0);
  EXPECT_GE(it->second.count,
            r.metrics.counter(obs::names::kSimplexRefactorizations));
}

// ---- logging integration -------------------------------------------------

TEST(ObsLogging, LinesNeverShearUnderConcurrency) {
  std::vector<std::string> lines;  // sink runs under the emit lock
  util::setLogSink([&lines](std::string_view line) {
    lines.emplace_back(line);
  });
  const util::LogLevel saved = util::logLevel();
  util::setLogLevel(util::LogLevel::Info);

  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i)
        PDW_LOG(Info, "shear") << "thread " << t << " line " << i << " end";
    });
  for (std::thread& t : threads) t.join();

  util::setLogLevel(saved);
  util::setLogSink(nullptr);

  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads) * kLines);
  for (const std::string& line : lines) {
    // One complete, well-formed record per sink call: level prefix, obs
    // thread id, tag, the full message, one trailing newline.
    EXPECT_EQ(line.rfind("[INFO] (t", 0), 0) << line;
    EXPECT_NE(line.find(") shear: thread "), std::string::npos) << line;
    EXPECT_NE(line.find(" end\n"), std::string::npos) << line;
    EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
  }
}

TEST(ObsLogging, ReloadsLevelFromEnvironment) {
  const util::LogLevel saved = util::logLevel();
  ASSERT_EQ(setenv("PDW_LOG_LEVEL", "debug", 1), 0);
  EXPECT_EQ(util::reloadLogLevelFromEnv(), util::LogLevel::Debug);
  EXPECT_EQ(util::logLevel(), util::LogLevel::Debug);

  ASSERT_EQ(setenv("PDW_LOG_LEVEL", "off", 1), 0);
  EXPECT_EQ(util::reloadLogLevelFromEnv(), util::LogLevel::Off);

  ASSERT_EQ(unsetenv("PDW_LOG_LEVEL"), 0);
  EXPECT_EQ(util::reloadLogLevelFromEnv(), util::LogLevel::Warn);
  util::setLogLevel(saved);
}

}  // namespace
