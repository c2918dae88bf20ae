// pdw::Pipeline — the stable facade over the whole PathDriver-Wash stack.
//
//   pdw::Pipeline pipeline(core::PdwOptions{}.withThreads(4));
//   pdw::PdwResult r = pipeline.run(base_schedule);
//   // r.plan       — the washed, re-timed schedule + necessity stats
//   // r.timings    — per-stage wall-clock breakdown
//   // r.solver     — path-ILP and scheduling-ILP statistics
//   // r.cache      — route-cache hits/misses/evictions for this run
//
// The Pipeline owns the parallel runtime: a work-stealing thread pool that
// routes the per-operation wash-path ILPs concurrently (they are
// independent given the necessity analysis) and an LRU route cache that
// persists across run() calls so repeated sub-assays skip the ILP entirely.
// Every MILP runs one best-bound branch-and-bound search on the calling
// thread.
//
// Determinism guarantee: for a fixed option set, run() produces the same
// wash plan for every num_threads value (parallel routing merges in
// wash-operation index order, and no solver result depends on thread
// count or timing). num_threads = 1 executes the exact sequential code
// path.
#pragma once

#include <memory>
#include <string>

#include "assay/schedule.h"
#include "core/pathdriver_wash.h"
#include "core/route_cache.h"
#include "core/schedule_delta.h"
#include "ilp/types.h"
#include "obs/metrics.h"
#include "wash/plan.h"

namespace pdw {

namespace util {
class ThreadPool;
}

/// Wall-clock seconds spent in each pipeline stage of one run().
struct StageTimings {
  double analysis_s = 0.0;    ///< contamination replay + necessity analysis
  double clustering_s = 0.0;  ///< wash-target clustering
  double routing_s = 0.0;     ///< per-operation wash-path routing
  double scheduling_s = 0.0;  ///< scheduling ILP (or greedy fallback)
  double total_s = 0.0;
};

/// Solver bookkeeping across both ILP stages of one run().
struct PipelineSolverStats {
  /// Scheduling-ILP statistics (zero when the stage was skipped).
  ilp::SolveStats schedule;
  bool schedule_ilp_success = false;
  bool schedule_greedy_fallback = false;
  /// Wash-path routing totals over all operations. These are views over the
  /// obs metrics registry: run() fills them from the per-run delta of the
  /// pdw.path_ilp.* counters rather than keeping separate books.
  int path_ilp_solves = 0;
  int path_connectivity_cuts = 0;
  int path_fallbacks = 0;   ///< operations that used the BFS fallback
  int path_warm_hits = 0;   ///< node LPs warm-solved across path ILPs
};

/// Bookkeeping of one Pipeline::resolve() — how much of the previous
/// solve's state the incremental path actually reused (the `pdw.resolve.*`
/// metrics mirror these as process-wide counters).
struct ResolveStats {
  bool attempted = false;  ///< this result came from resolve(), not run()
  bool valid = false;      ///< delta applied cleanly; the plan is meaningful
  std::string error;       ///< set when attempted && !valid
  int frontier_cells = 0;  ///< cells re-analyzed (use list changed)
  int reused_cells = 0;    ///< cells whose necessity carried over verbatim
  int targets_recomputed = 0;
  int targets_reused = 0;
  int routes_reused = 0;   ///< wash routes served by the route cache
  /// The necessity memo was unusable (options/horizon moved, or a task
  /// removal renumbered ids) and every cell was re-analyzed.
  bool full_fallback = false;
};

/// Consolidated result of one Pipeline::run().
struct PdwResult {
  wash::WashPlanResult plan;
  StageTimings timings;
  PipelineSolverStats solver;
  /// Route-cache activity during this run (deltas, not lifetime totals).
  core::RouteCacheStats cache;
  /// Every registry metric as a per-run delta (counters and histograms are
  /// this run's contribution; gauges are their value at run() end). Caveat:
  /// the registry is process-wide, so concurrent run() calls on *different*
  /// Pipeline instances fold into each other's deltas.
  obs::MetricsSnapshot metrics;
  int threads = 1;             ///< execution lanes used
  int wash_operations = 0;     ///< clustered wash operations routed
  int unroutable_operations = 0;  ///< dropped (malformed chip; logged)
  /// Incremental-solve bookkeeping (attempted == false for run() results).
  ResolveStats resolve;

  /// Convenience: the washed schedule.
  const assay::AssaySchedule& schedule() const { return plan.schedule; }
};

class Pipeline {
 public:
  /// Resolves num_threads (0 -> hardware concurrency), builds the runtime
  /// (thread pool + route cache) and — unless withScheduleBudget pinned one —
  /// applies the PDW scheduling-solver budget over the stock ilp defaults,
  /// logging the substitution.
  explicit Pipeline(core::PdwOptions options = {});
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Run the four PDW stages on `base`. Reentrant with respect to distinct
  /// Pipeline instances; one instance must not be run() from two threads.
  /// Also (re)primes the incremental-solve state consumed by resolve():
  /// the base schedule is copied, so the caller's graph/chip must outlive
  /// later resolve() calls, and any blocked cells from earlier deltas are
  /// forgotten.
  PdwResult run(const assay::AssaySchedule& base);

  /// Incremental delta-solve (DESIGN.md §15): apply `delta` to the last
  /// solved base schedule, re-analyze wash necessity only on the
  /// contamination frontier the delta touched, route through the (warm)
  /// route cache with the delta's blocked cells excluded, and repair the
  /// scheduling MILP in fix-and-optimize mode instead of the cold two-phase
  /// solve. The wash plan equals what run() on the perturbed schedule would
  /// produce up to schedule re-timing: necessity, clustering and routing are
  /// bit-identical, so N_wash/L_wash match exactly. Requires a prior
  /// successful run(); deltas compose (each resolve() re-bases on the
  /// perturbed schedule it produced). An invalid delta (unknown id,
  /// transport removal, blocked target cell) leaves the state untouched and
  /// returns result.resolve.valid == false with the error message.
  PdwResult resolve(const core::ScheduleDelta& delta);

  /// True once run() has primed the state resolve() needs.
  bool canResolve() const;

  /// The options as resolved by the constructor (threads, budgets).
  const core::PdwOptions& options() const { return options_; }

  /// Lifetime route-cache statistics (accumulated over all run() calls).
  core::RouteCacheStats cacheStats() const;

 private:
  struct ResolveState;

  /// Shared stage driver behind run() and resolve(). `delta_stats` != null
  /// selects the incremental path (memoized necessity + repair scheduling).
  PdwResult execute(const assay::AssaySchedule& base,
                    wash::NecessityDeltaStats* delta_stats);

  core::PdwOptions options_;
  /// Owned by this Pipeline unless the options injected shared instances
  /// (PdwOptions::shared_pool / shared_route_cache — the pdwd service model
  /// of N concurrent Pipelines over one pool and one warm cache).
  std::shared_ptr<util::ThreadPool> pool_;
  std::shared_ptr<core::RouteCache> cache_;
  std::unique_ptr<ResolveState> resolve_state_;
};

}  // namespace pdw
