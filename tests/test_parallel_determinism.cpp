// The Pipeline's determinism guarantee: for a fixed option set the wash
// plan is identical for every thread count (parallel routing merges in
// wash-operation index order; every MILP runs one best-bound search on the
// calling thread, so its status and work counts match too; the
// rescheduler's parallel precomputation feeds a sequential sweep). Plus
// unit tests of the LRU route cache.
//
// Wall-clock solver limits are the enemy of this comparison — a loaded
// machine can cut the two runs at different points — so every budget here
// is node/iteration-bound with an effectively-infinite time limit.
#include <gtest/gtest.h>

#include <string>

#include "assay/benchmarks.h"
#include "core/pipeline.h"
#include "core/route_cache.h"
#include "sim/metrics.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"

namespace {

using namespace pdw;
using assay::BenchmarkId;

/// Deterministic budgets for every benchmark: the schedule ILP is
/// node-bound; wash paths come from the BFS heuristic (budget-free and
/// deterministic by construction). The ILP path router has its own
/// node-bound determinism test below on the small benchmarks — on the big
/// synthetics an untimed ILP cut loop is intractable, and a wall-clock cap
/// is exactly what this test must not depend on.
core::PdwOptions deterministicOptions(int threads) {
  core::PdwOptions options = core::PdwOptions{}
                                 .withThreads(threads)
                                 .withoutIlpPaths()
                                 .withScheduleBudget(1e6, 200);
  // Node caps alone bound the search poorly when individual LPs turn
  // degenerate; the solver's global simplex-iteration cap is the budget
  // that actually limits work, and it is just as deterministic.
  options.solver.schedule.simplex_iteration_limit = 1500;
  return options;
}

void expectIdenticalPlans(const assay::AssaySchedule& base,
                          core::PdwOptions sequential_options,
                          core::PdwOptions parallel_options) {
  Pipeline sequential(std::move(sequential_options));
  Pipeline parallel(std::move(parallel_options));
  const PdwResult r1 = sequential.run(base);
  const PdwResult r8 = parallel.run(base);

  EXPECT_EQ(r1.threads, 1);
  EXPECT_EQ(r8.threads, 8);

  const sim::WashMetrics m1 = sim::computeMetrics(r1.schedule(), base);
  const sim::WashMetrics m8 = sim::computeMetrics(r8.schedule(), base);
  EXPECT_EQ(m1.n_wash, m8.n_wash);
  EXPECT_DOUBLE_EQ(m1.l_wash_mm, m8.l_wash_mm);
  EXPECT_DOUBLE_EQ(m1.t_assay, m8.t_assay);

  // The strongest check: the full schedule dumps are byte-identical.
  EXPECT_EQ(r1.schedule().describe(), r8.schedule().describe());

  // The solve itself must not depend on thread count: same optimality
  // verdict and the same search work.
  EXPECT_EQ(r1.plan.proven_optimal, r8.plan.proven_optimal);
  EXPECT_EQ(r1.solver.schedule.nodes_explored,
            r8.solver.schedule.nodes_explored);
  EXPECT_EQ(r1.solver.schedule.simplex_iterations,
            r8.solver.schedule.simplex_iterations);
}

class ParallelDeterminism : public ::testing::TestWithParam<BenchmarkId> {};

TEST_P(ParallelDeterminism, PlanIdenticalAt1And8Threads) {
  const assay::Benchmark b = assay::makeBenchmark(GetParam());
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));
  expectIdenticalPlans(base.schedule, deterministicOptions(1),
                       deterministicOptions(8));
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ParallelDeterminism,
    ::testing::ValuesIn(assay::allBenchmarks()),
    [](const ::testing::TestParamInfo<BenchmarkId>& info) {
      std::string name = assay::toString(info.param);
      for (char& c : name)
        if (c == ' ' || c == '-') c = '_';
      return name;
    });

/// ILP wash-path routing under the parallel runtime, node-bound so the two
/// runs cut identically. Small benchmarks only: without a wall-clock cap
/// the per-operation cut loop is only affordable there.
class IlpPathDeterminism : public ::testing::TestWithParam<BenchmarkId> {};

TEST_P(IlpPathDeterminism, PlanIdenticalAt1And8Threads) {
  const assay::Benchmark b = assay::makeBenchmark(GetParam());
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));
  const auto options = [](int threads) {
    core::PdwOptions o = core::PdwOptions{}
                             .withThreads(threads)
                             .withScheduleBudget(1e6, 200)
                             .withPathBudget(1e6, 400);
    o.solver.schedule.simplex_iteration_limit = 4000;
    o.solver.path.simplex_iteration_limit = 10000;
    return o;
  };
  expectIdenticalPlans(base.schedule, options(1), options(8));
}

INSTANTIATE_TEST_SUITE_P(
    SmallBenchmarks, IlpPathDeterminism,
    ::testing::Values(BenchmarkId::Pcr, BenchmarkId::Ivd),
    [](const ::testing::TestParamInfo<BenchmarkId>& info) {
      std::string name = assay::toString(info.param);
      for (char& c : name)
        if (c == ' ' || c == '-') c = '_';
      return name;
    });

// ---- route-cache unit tests ----------------------------------------------

arch::FlowPath pathOfLength(int n) {
  std::vector<arch::Cell> cells;
  for (int i = 0; i < n; ++i) cells.push_back({i, 0});
  return arch::FlowPath(std::move(cells));
}

core::RouteKey keyFor(std::uint64_t fingerprint) {
  core::RouteKey key;
  key.chip_fingerprint = fingerprint;
  key.targets = {{1, 2}, {3, 4}};
  return key;
}

TEST(RouteCache, MissThenHit) {
  core::RouteCache cache(4);
  const core::RouteKey key = keyFor(1);
  EXPECT_FALSE(cache.lookup(key).has_value());

  cache.insert(key, pathOfLength(3));
  const auto cached = cache.lookup(key);
  ASSERT_TRUE(cached.has_value());
  ASSERT_TRUE(cached->has_value());
  EXPECT_EQ((*cached)->size(), 3u);

  const core::RouteCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(RouteCache, MemoizesRoutingFailure) {
  core::RouteCache cache(4);
  const core::RouteKey key = keyFor(2);
  cache.insert(key, std::nullopt);

  // A memoized failure is a *hit* whose inner optional is empty — distinct
  // from an uncached key.
  const auto cached = cache.lookup(key);
  ASSERT_TRUE(cached.has_value());
  EXPECT_FALSE(cached->has_value());
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(RouteCache, EvictsLeastRecentlyUsed) {
  core::RouteCache cache(2);
  cache.insert(keyFor(1), pathOfLength(1));
  cache.insert(keyFor(2), pathOfLength(2));
  // Touch key 1 so key 2 becomes the LRU entry.
  EXPECT_TRUE(cache.lookup(keyFor(1)).has_value());

  cache.insert(keyFor(3), pathOfLength(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.lookup(keyFor(1)).has_value());
  EXPECT_FALSE(cache.lookup(keyFor(2)).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(keyFor(3)).has_value());
}

TEST(RouteCache, ReinsertRefreshesRecency) {
  core::RouteCache cache(2);
  cache.insert(keyFor(1), pathOfLength(1));
  cache.insert(keyFor(2), pathOfLength(2));
  cache.insert(keyFor(1), pathOfLength(5));  // refresh, no growth
  EXPECT_EQ(cache.size(), 2u);

  cache.insert(keyFor(3), pathOfLength(3));  // evicts key 2, not key 1
  EXPECT_FALSE(cache.lookup(keyFor(2)).has_value());
  const auto refreshed = cache.lookup(keyFor(1));
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_EQ((*refreshed)->size(), 5u);
}

TEST(RouteCache, DistinctProblemsDoNotAlias) {
  core::RouteCache cache(8);
  core::RouteKey a = keyFor(1);
  core::RouteKey b = keyFor(1);
  b.targets.push_back({9, 9});  // same fingerprint, different target set
  cache.insert(a, pathOfLength(2));
  EXPECT_FALSE(cache.lookup(b).has_value());
}

TEST(RouteCache, PipelineReusesCacheAcrossRuns) {
  const assay::Benchmark b = assay::makeBenchmark(BenchmarkId::Pcr);
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));

  Pipeline pipeline(deterministicOptions(1));
  const PdwResult first = pipeline.run(base.schedule);
  const PdwResult second = pipeline.run(base.schedule);

  // Every routing problem of the second run was memoized by the first.
  EXPECT_EQ(first.cache.hits, 0);
  EXPECT_GT(first.cache.inserts, 0);
  EXPECT_GT(second.cache.hits, 0);
  EXPECT_EQ(second.cache.misses, 0);
  EXPECT_EQ(first.schedule().describe(), second.schedule().describe());

  const core::RouteCacheStats lifetime = pipeline.cacheStats();
  EXPECT_EQ(lifetime.hits, second.cache.hits);
  EXPECT_EQ(lifetime.misses, first.cache.misses);
}

TEST(RouteCache, ZeroCapacityDisablesCaching) {
  const assay::Benchmark b = assay::makeBenchmark(BenchmarkId::Pcr);
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));

  Pipeline pipeline(deterministicOptions(1).withRouteCache(0));
  const PdwResult first = pipeline.run(base.schedule);
  const PdwResult second = pipeline.run(base.schedule);
  EXPECT_EQ(second.cache.hits + second.cache.misses, 0);
  EXPECT_EQ(first.schedule().describe(), second.schedule().describe());
}

}  // namespace
