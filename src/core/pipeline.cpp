#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>
#include <vector>

#include "core/wash_path_ilp.h"
#include "obs/metric_names.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "wash/contamination.h"
#include "wash/necessity.h"
#include "wash/rescheduler.h"

namespace pdw {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Routing outcome of one wash operation (slot-per-index: workers write
/// only their own element, results merge in operation order). Per-call
/// routing stats live in the obs registry, not here.
struct RouteOutcome {
  std::optional<arch::FlowPath> path;
  bool cache_hit = false;
};

RouteOutcome routeOperation(const arch::ChipLayout& chip,
                            const std::vector<arch::Cell>& targets,
                            const core::PdwOptions& options,
                            core::RouteCache* cache) {
  RouteOutcome out;
  core::RouteKey key;
  std::uint64_t epoch = 0;
  if (cache != nullptr) {
    // Capture the epoch before the miss: if a shared cache is invalidated
    // while we route, the epoch-guarded insert below drops our (stale)
    // result instead of repopulating the new epoch with it.
    epoch = cache->epoch();
    key = core::RouteCache::makeKey(chip, targets, options.use_ilp_paths,
                                    options.path);
    if (auto cached = cache->lookup(key)) {
      PDW_TRACE_INSTANT("routing", "cache_hit");
      out.path = std::move(*cached);
      out.cache_hit = true;
      return out;
    }
  }

  if (options.use_ilp_paths) {
    out.path = core::routeWashPathIlp(chip, targets, options.path);
  } else {
    out.path = core::routeWashPathHeuristic(chip, targets,
                                            options.path.avoid_cells);
  }
  if (!out.path) {
    // Last resort: the heuristic on the whole grid (minus avoided cells —
    // those are hard constraints). Target cells are on used flow paths, so
    // ports can always reach them.
    out.path = core::routeWashPathHeuristic(chip, targets,
                                            options.path.avoid_cells);
  }
  if (cache != nullptr) cache->insert(key, out.path, epoch);
  return out;
}

/// Fold the per-run registry delta into the result: the metrics snapshot
/// itself, the path_* solver stats (views over pdw.path_ilp.*), and the
/// per-stage duration histograms.
void finalizeMetrics(PdwResult& result,
                     const obs::MetricsSnapshot& baseline) {
  obs::Registry& reg = obs::Registry::instance();
  static obs::Histogram& analysis_h =
      reg.histogram(obs::names::kStageAnalysisSeconds);
  static obs::Histogram& clustering_h =
      reg.histogram(obs::names::kStageClusteringSeconds);
  static obs::Histogram& routing_h =
      reg.histogram(obs::names::kStageRoutingSeconds);
  static obs::Histogram& scheduling_h =
      reg.histogram(obs::names::kStageSchedulingSeconds);
  analysis_h.observe(result.timings.analysis_s);
  clustering_h.observe(result.timings.clustering_s);
  routing_h.observe(result.timings.routing_s);
  scheduling_h.observe(result.timings.scheduling_s);

  result.metrics = reg.snapshot().since(baseline);
  result.solver.path_ilp_solves =
      static_cast<int>(result.metrics.counter(obs::names::kPathIlpSolves));
  result.solver.path_connectivity_cuts = static_cast<int>(
      result.metrics.counter(obs::names::kPathIlpConnectivityCuts));
  result.solver.path_fallbacks =
      static_cast<int>(result.metrics.counter(obs::names::kPathIlpFallbacks));
  result.solver.path_warm_hits =
      static_cast<int>(result.metrics.counter(obs::names::kPathIlpWarmHits));
}

}  // namespace

/// Everything resolve() needs from the previous solve: the base schedule it
/// was (re)based on, the memoized per-cell necessity analysis, and the
/// blocked cells accumulated from earlier deltas. run() re-primes it from
/// scratch; every successful resolve() re-bases it on the perturbed
/// schedule, so deltas compose.
struct Pipeline::ResolveState {
  assay::AssaySchedule base;
  wash::NecessityMemo memo;
  std::vector<arch::Cell> blocked;  ///< sorted, deduplicated
  bool primed = false;
};

Pipeline::Pipeline(core::PdwOptions options) : options_(std::move(options)) {
  obs::setThreadName("pdw-main");
  if (options_.num_threads <= 0)
    options_.num_threads = util::ThreadPool::hardwareConcurrency();

  // The PDW scheduling budget (8 s / 60000 nodes) historically replaced the
  // stock ilp::SolveParams limits silently inside PdwOptions's constructor;
  // the substitution now lives here, visibly. Fields the caller already
  // moved off their stock defaults are respected.
  if (!options_.solver.schedule_budget_pinned) {
    const ilp::SolveParams stock;
    bool substituted = false;
    if (options_.solver.schedule.time_limit_seconds ==
        stock.time_limit_seconds) {
      options_.solver.schedule.time_limit_seconds = 8.0;
      substituted = true;
    }
    if (options_.solver.schedule.node_limit == stock.node_limit) {
      options_.solver.schedule.node_limit = 60000;
      substituted = true;
    }
    if (substituted) {
      PDW_LOG(Info, "pipeline")
          << "scheduling solver budget defaulted to "
          << options_.solver.schedule.time_limit_seconds << " s / "
          << options_.solver.schedule.node_limit
          << " nodes (pin with SolverConfig::withScheduleBudget)";
    }
  }

  // Resolve the LP backend choice: the SolverConfig-wide engine fills any
  // stage that did not set its own (a non-empty per-stage engine wins).
  if (!options_.solver.engine.empty()) {
    if (options_.solver.schedule.engine.empty())
      options_.solver.schedule.engine = options_.solver.engine;
    if (options_.solver.path.engine.empty())
      options_.solver.path.engine = options_.solver.engine;
  }
  // SolverConfig is the authoritative source of the wash-path solver knobs;
  // the copy keeps routeOperation's WashPathOptions (and the route-cache
  // key, which hashes them) in sync with it.
  options_.path.solver = options_.solver.path;

  // Shared-runtime injection (pdwd): an externally-owned pool/cache wins
  // over per-instance construction, so N concurrent Pipelines multiplex one
  // work-stealing pool and serve repeat traffic from one warm route cache.
  if (options_.shared_pool) {
    pool_ = options_.shared_pool;
  } else {
    pool_ = std::make_shared<util::ThreadPool>(options_.num_threads);
  }
  if (options_.shared_route_cache) {
    cache_ = options_.shared_route_cache;
  } else if (options_.route_cache_capacity > 0) {
    cache_ = std::make_shared<core::RouteCache>(options_.route_cache_capacity);
  }
}

Pipeline::~Pipeline() = default;

core::RouteCacheStats Pipeline::cacheStats() const {
  return cache_ ? cache_->stats() : core::RouteCacheStats{};
}

PdwResult Pipeline::execute(const assay::AssaySchedule& base,
                            wash::NecessityDeltaStats* delta_stats) {
  const auto run_start = Clock::now();
  const bool incremental = delta_stats != nullptr;
  PDW_TRACE_SPAN("pipeline", incremental ? "resolve" : "run");
  obs::Registry& reg = obs::Registry::instance();
  const obs::MetricsSnapshot metrics_before = reg.snapshot();
  PdwResult result;
  result.plan.method = "PDW";
  result.threads = pool_->size();
  const core::RouteCacheStats cache_before = cacheStats();

  // Delta-blocked cells join any caller-configured avoidance for this
  // solve's routing (and its route-cache keys).
  core::PdwOptions solve_options = options_;
  if (resolve_state_ && !resolve_state_->blocked.empty()) {
    auto& avoid = solve_options.path.avoid_cells;
    avoid.insert(avoid.end(), resolve_state_->blocked.begin(),
                 resolve_state_->blocked.end());
    std::sort(avoid.begin(), avoid.end());
    avoid.erase(std::unique(avoid.begin(), avoid.end()), avoid.end());
  }

  // 1. Contamination replay + necessity analysis (eqs. 9-11). The
  // incremental path re-walks only cells whose use list the delta moved;
  // everything else is copied from the memo, so the merged result is
  // bit-identical to a full analysis of `base`.
  auto stage_start = Clock::now();
  wash::NecessityResult necessity;
  {
    PDW_TRACE_SPAN("pipeline", "necessity_analysis");
    const wash::ContaminationTracker tracker(base);
    if (incremental) {
      necessity = analyzeWashNecessityDelta(tracker, resolve_state_->memo,
                                            options_.necessity, delta_stats);
    } else {
      necessity = analyzeWashNecessity(
          tracker, options_.necessity,
          resolve_state_ ? &resolve_state_->memo : nullptr);
    }
  }
  result.plan.necessity = necessity.stats;
  reg.counter(obs::names::kNecessityTargets).add(necessity.stats.targets);
  reg.counter(obs::names::kNecessitySkippedType1)
      .add(necessity.stats.skipped_type1);
  reg.counter(obs::names::kNecessitySkippedType2)
      .add(necessity.stats.skipped_type2);
  reg.counter(obs::names::kNecessitySkippedType3)
      .add(necessity.stats.skipped_type3);
  result.timings.analysis_s = secondsSince(stage_start);

  if (necessity.targets.empty()) {
    result.plan.schedule = base;
    result.plan.proven_optimal = true;
    result.timings.total_s = secondsSince(run_start);
    result.plan.solve_seconds = result.timings.total_s;
    finalizeMetrics(result, metrics_before);
    return result;
  }

  // 2. Cluster targets into wash operations.
  stage_start = Clock::now();
  std::vector<wash::WashOperation> washes;
  {
    PDW_TRACE_SPAN("pipeline", "clustering");
    washes = clusterTargets(std::move(necessity.targets), options_.cluster);
  }
  result.wash_operations = static_cast<int>(washes.size());
  reg.counter(obs::names::kClusterOperations).add(result.wash_operations);
  result.timings.clustering_s = secondsSince(stage_start);

  // 3. Route a wash path per operation (eqs. 12-15), in parallel: the
  // routing problems are independent, each worker fills its own slot, and
  // the merge below walks slots in operation order — so the plan is the
  // same for any thread count.
  stage_start = Clock::now();
  std::vector<RouteOutcome> outcomes(washes.size());
  std::vector<std::vector<arch::Cell>> target_cells(washes.size());
  for (std::size_t i = 0; i < washes.size(); ++i)
    target_cells[i] = washes[i].targetCells();
  {
    PDW_TRACE_SPAN("pipeline", "routing");
    pool_->parallelFor(washes.size(), [&](std::size_t i) {
      PDW_TRACE_SPAN_ID("routing", "wash_op", i);
      outcomes[i] = routeOperation(base.chip(), target_cells[i], solve_options,
                                   cache_.get());
    });
  }
  for (std::size_t i = 0; i < washes.size(); ++i) {
    const RouteOutcome& out = outcomes[i];
    PDW_LOG(Debug, "pdw") << "wash path ("
                          << (out.path ? static_cast<int>(out.path->size())
                                       : -1)
                          << " cells) for " << washes[i].targets.size()
                          << " targets"
                          << (out.cache_hit ? " [cache]" : "");
    if (out.path) washes[i].path = *out.path;
  }
  // Drop unroutable operations only if truly unreachable (logged loudly:
  // this indicates a malformed chip).
  std::vector<wash::WashOperation> routed;
  for (wash::WashOperation& w : washes) {
    if (w.path.empty()) {
      PDW_LOG(Error, "pdw") << "wash operation unroutable; dropping "
                            << w.targets.size() << " targets";
      ++result.unroutable_operations;
      continue;
    }
    routed.push_back(std::move(w));
  }
  if (result.unroutable_operations > 0)
    reg.counter(obs::names::kRoutingUnroutableOperations)
        .add(result.unroutable_operations);
  result.timings.routing_s = secondsSince(stage_start);

  // 4. Re-time everything with the scheduling ILP (eqs. 1-8, 16-26).
  stage_start = Clock::now();
  {
  PDW_TRACE_SPAN("pipeline", "scheduling");
  bool scheduled = false;
  if (options_.use_ilp_schedule) {
    core::ScheduleIlpOptions ilp_options;
    ilp_options.alpha = options_.alpha;
    ilp_options.beta = options_.beta;
    ilp_options.gamma = options_.gamma;
    ilp_options.wash = options_.wash;
    ilp_options.order_horizon_s = options_.order_horizon_s;
    ilp_options.enable_integration = options_.enable_integration;
    ilp_options.solver = options_.solver.schedule;
    ilp_options.pool = pool_.get();
    ilp_options.repair_mode = incremental;
    core::ScheduleIlpResult ilp =
        solveWashSchedule(base, routed, ilp_options);
    result.solver.schedule = ilp.stats;
    result.solver.schedule_ilp_success = ilp.success;
    if (ilp.success) {
      result.plan.schedule = std::move(ilp.schedule);
      result.plan.integrated_removals = ilp.integrated_removals;
      result.plan.proven_optimal = ilp.proven_optimal;
      scheduled = true;
    } else {
      PDW_LOG(Warn, "pdw")
          << "scheduling ILP returned no incumbent within its budget; "
             "falling back to greedy insertion";
    }
  }
  if (!scheduled) {
    result.solver.schedule_greedy_fallback = true;
    reg.counter(obs::names::kScheduleIlpGreedyFallbacks).increment();
    result.plan.schedule =
        wash::rescheduleWithWashes(base, routed, options_.wash, pool_.get());
  }
  }
  result.timings.scheduling_s = secondsSince(stage_start);

  result.timings.total_s = secondsSince(run_start);
  result.plan.solve_seconds = result.timings.total_s;

  const core::RouteCacheStats cache_after = cacheStats();
  result.cache.hits = cache_after.hits - cache_before.hits;
  result.cache.misses = cache_after.misses - cache_before.misses;
  result.cache.inserts = cache_after.inserts - cache_before.inserts;
  result.cache.evictions = cache_after.evictions - cache_before.evictions;
  result.cache.stale_drops = cache_after.stale_drops - cache_before.stale_drops;
  result.cache.invalidations =
      cache_after.invalidations - cache_before.invalidations;

  finalizeMetrics(result, metrics_before);
  return result;
}

PdwResult Pipeline::run(const assay::AssaySchedule& base) {
  if (!resolve_state_) resolve_state_ = std::make_unique<ResolveState>();
  // Fresh priming: forget blocked cells and the old memo (execute() refills
  // the memo as a side effect of the full necessity analysis).
  resolve_state_->blocked.clear();
  resolve_state_->memo = wash::NecessityMemo{};
  resolve_state_->primed = false;
  PdwResult result = execute(base, nullptr);
  resolve_state_->base = base;
  resolve_state_->primed = true;
  return result;
}

bool Pipeline::canResolve() const {
  return resolve_state_ != nullptr && resolve_state_->primed;
}

PdwResult Pipeline::resolve(const core::ScheduleDelta& delta) {
  const auto t0 = Clock::now();
  obs::Registry& reg = obs::Registry::instance();
  reg.counter(obs::names::kResolveRequests).increment();

  auto reject = [&](std::string error) {
    reg.counter(obs::names::kResolveErrors).increment();
    PDW_LOG(Warn, "pdw") << "resolve rejected: " << error;
    PdwResult result;
    result.resolve.attempted = true;
    result.resolve.valid = false;
    result.resolve.error = std::move(error);
    return result;
  };

  if (!canResolve())
    return reject("resolve() requires a prior successful run()");

  core::AppliedDelta applied = core::applyDelta(resolve_state_->base, delta);
  if (!applied.valid) return reject(std::move(applied.error));

  // Commit the delta's blocked cells (they persist across later resolves,
  // like the re-based schedule does).
  if (!delta.blocked_cells.empty()) {
    auto& blocked = resolve_state_->blocked;
    blocked.insert(blocked.end(), delta.blocked_cells.begin(),
                   delta.blocked_cells.end());
    std::sort(blocked.begin(), blocked.end());
    blocked.erase(std::unique(blocked.begin(), blocked.end()), blocked.end());
  }
  // A removal renumbered the dense task ids; the memo's use lists and
  // targets embed the old ids, so per-cell reuse would splice stale ids
  // into the merged result. Drop it — the delta analysis falls back to a
  // full re-walk and reports full_fallback.
  if (applied.ids_renumbered) resolve_state_->memo = wash::NecessityMemo{};

  wash::NecessityDeltaStats dstats;
  PdwResult result = execute(applied.schedule, &dstats);

  result.resolve.attempted = true;
  result.resolve.valid = true;
  result.resolve.frontier_cells = dstats.frontier_cells;
  result.resolve.reused_cells = dstats.reused_cells;
  result.resolve.targets_recomputed = dstats.recomputed_targets;
  result.resolve.targets_reused = dstats.reused_targets;
  result.resolve.routes_reused = result.cache.hits;
  result.resolve.full_fallback = dstats.full_fallback;

  // Re-base: later deltas apply on top of the perturbed schedule.
  resolve_state_->base = std::move(applied.schedule);

  if (dstats.full_fallback)
    reg.counter(obs::names::kResolveFullFallbacks).increment();
  reg.counter(obs::names::kResolveCellsTotal)
      .add(dstats.frontier_cells + dstats.reused_cells);
  reg.counter(obs::names::kResolveFrontierCells).add(dstats.frontier_cells);
  reg.counter(obs::names::kResolveReusedCells).add(dstats.reused_cells);
  reg.counter(obs::names::kResolveTargetsTotal)
      .add(dstats.recomputed_targets + dstats.reused_targets);
  reg.counter(obs::names::kResolveTargetsRecomputed)
      .add(dstats.recomputed_targets);
  reg.counter(obs::names::kResolveTargetsReused).add(dstats.reused_targets);
  reg.counter(obs::names::kResolveRoutesReused).add(result.cache.hits);
  reg.histogram(obs::names::kResolveSeconds).observe(secondsSince(t0));
  return result;
}

}  // namespace pdw
