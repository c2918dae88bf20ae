// PathDriver-Wash (PDW): the paper's primary contribution.
//
// Pipeline (paper §III):
//   1. contamination replay + wash-necessity analysis (Type 1/2/3,
//      eqs. 9-11) on the given base schedule,
//   2. clustering of wash targets into wash operations,
//   3. ILP wash-path routing per operation (eqs. 12-15 + connectivity cuts),
//   4. scheduling ILP with integration (eqs. 1-8, 16-26) — with a greedy
//      insertion fallback when the solver budget is exhausted (best-effort,
//      like the paper's 15-minute cap).
//
// Every stage is individually switchable for the ablation benches.
//
// The preferred entry point is the pdw::Pipeline facade (core/pipeline.h),
// which adds the parallel routing runtime, the route cache, per-stage
// timings and solver statistics. This header holds the option set it
// takes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "assay/schedule.h"
#include "core/schedule_ilp.h"
#include "core/wash_path_ilp.h"
#include "wash/plan.h"
#include "wash/wash_op.h"

namespace pdw::util {
class ThreadPool;
}

namespace pdw::core {

class RouteCache;  // core/route_cache.h

/// All solver knobs of the pipeline in one place: per-stage ilp::SolveParams
/// for the scheduling ILP and the per-operation wash-path ILPs, plus the LP
/// backend choice (lp_backend.h). Within `PdwOptions`, this struct is the
/// authoritative source — the Pipeline facade copies `path` over
/// `PdwOptions::path.solver` before routing, so standalone
/// `routeWashPathIlp(..., WashPathOptions)` use is unaffected.
struct SolverConfig {
  /// Scheduling-ILP knobs (eqs. 1-8, 16-26). NOTE: unless
  /// `withScheduleBudget` pins a budget, the Pipeline facade replaces stock
  /// `ilp::SolveParams` limits (10 s / 200000 nodes) with the PDW defaults
  /// (8 s / 60000 nodes) and logs that it did so.
  ilp::SolveParams schedule;

  /// Per-operation wash-path ILP knobs (eqs. 12-15). Defaults mirror the
  /// standalone WashPathOptions (1.5 s / 8000 nodes).
  ilp::SolveParams path;

  /// LP backend for both ILP stages: "revised" (sparse revised simplex, the
  /// default) or "dense" (the dense-tableau oracle); "" picks the library
  /// default. Per-stage override: set `schedule.engine` / `path.engine`
  /// directly — a non-empty per-stage engine wins over this field.
  std::string engine;

  /// True once withScheduleBudget() pinned an explicit budget (suppresses
  /// the facade's default-budget substitution).
  bool schedule_budget_pinned = false;

  SolverConfig() {
    path.time_limit_seconds = 1.5;
    path.node_limit = 8000;
  }

  /// Select the LP backend for both stages (see `engine`).
  SolverConfig& withEngine(std::string name) {
    engine = std::move(name);
    return *this;
  }

  /// Pin the scheduling-ILP budget (wall-clock seconds and, optionally, a
  /// branch-and-bound node cap). Suppresses the facade's default budget.
  SolverConfig& withScheduleBudget(double seconds, std::int64_t nodes = 0) {
    schedule.time_limit_seconds = seconds;
    if (nodes > 0) schedule.node_limit = nodes;
    schedule_budget_pinned = true;
    return *this;
  }

  /// Budget of each per-operation wash-path ILP.
  SolverConfig& withPathBudget(double seconds, std::int64_t nodes = 0) {
    path.time_limit_seconds = seconds;
    if (nodes > 0) path.node_limit = nodes;
    return *this;
  }

  /// Toggle warm dual re-solves of branch-and-bound node LPs in both ILP
  /// stages (on by default; off forces every node through the cold primal —
  /// an ablation/debugging knob, results are identical either way).
  SolverConfig& withWarmNodeLps(bool enabled) {
    schedule.warm_lp = enabled;
    path.warm_lp = enabled;
    return *this;
  }

  /// Toggle the root cutting-plane loop (ilp/cuts.h) in both ILP stages.
  /// The two-argument form additionally switches individual separator
  /// families (Gomory mixed-integer / knapsack cover) while leaving the
  /// master switch on. Cuts never change the optimum — only the size of
  /// the branch-and-bound tree — so this is a perf/ablation knob.
  SolverConfig& withCuts(bool enabled) {
    schedule.cuts.enabled = enabled;
    path.cuts.enabled = enabled;
    return *this;
  }
  SolverConfig& withCuts(bool gomory, bool cover) {
    schedule.cuts.enabled = path.cuts.enabled = gomory || cover;
    schedule.cuts.gomory = path.cuts.gomory = gomory;
    schedule.cuts.cover = path.cuts.cover = cover;
    return *this;
  }

  /// Enable the solver flight recorder (obs/flight.h) in both ILP stages.
  /// Applies one FlightConfig to every branch-and-bound lane: events are
  /// recorded per lane and dumped as `pdw-flight-1` JSONL to
  /// `config.path` per the config's triggers.
  SolverConfig& withFlightRecording(obs::FlightConfig config) {
    config.enabled = true;
    schedule.flight = config;
    path.flight = std::move(config);
    return *this;
  }

  /// One-line description of the solver knobs that affect results or
  /// performance, stamped into `pdw-run-1` records (obs/runs.h).
  std::string fingerprint() const {
    return "schedule{" + ilp::fingerprint(schedule) + "} path{" +
           ilp::fingerprint(path) + "}";
  }
};

/// One consolidated option block for the whole pipeline. The builder-style
/// `with*` setters below are the supported way to configure a run — they
/// cover every knob of the nested stage structs (wash physics, necessity
/// exemptions, clustering, path routing, scheduling solver) so callers
/// never have to reach into four namespaces. DESIGN.md §"Unified options"
/// documents the mapping. Plain member access stays valid for the ablation
/// benches.
struct PdwOptions {
  /// Objective weights of eq. 26 (paper §IV: 0.3 / 0.3 / 0.4).
  double alpha = 0.3;
  double beta = 0.3;
  double gamma = 0.4;

  wash::WashParams wash;
  wash::NecessityOptions necessity;
  wash::ClusterOptions cluster;
  WashPathOptions path;

  /// Route wash paths with the ILP (false: BFS heuristic — ablation).
  bool use_ilp_paths = true;
  /// Re-time with the scheduling ILP (false: greedy insertion — ablation).
  bool use_ilp_schedule = true;
  /// Integrate excess removals into washes (paper §II-B; ablation).
  bool enable_integration = true;

  double order_horizon_s = 12.0;

  /// All solver knobs (per-stage SolveParams, LP backend choice, pinned
  /// budget flag). Authoritative within the pipeline; see SolverConfig.
  SolverConfig solver;

  /// Execution lanes for the parallel runtime (per-operation wash-path
  /// routing, rescheduler precomputation).
  /// 0 = hardware concurrency; 1 = fully sequential, reproducing the
  /// pre-runtime behavior bit-for-bit. Results are identical for every
  /// value — only wall-clock changes.
  int num_threads = 0;

  /// Memoize routing results across wash operations and across run() calls
  /// of one Pipeline (LRU, `route_cache_capacity` problems). 0 disables.
  std::size_t route_cache_capacity = 256;

  /// Shared-runtime injection (the pdwd service): when set, the Pipeline
  /// uses this route cache instead of constructing its own, so several
  /// concurrent Pipelines serve repeat traffic from one warm cache
  /// (`route_cache_capacity` is ignored). The cache's epoch guard
  /// (RouteCache::invalidate) keeps concurrent readers safe across version
  /// bumps. Lookup/insert are thread-safe; sharing never changes results.
  std::shared_ptr<RouteCache> shared_route_cache;

  /// When set, the Pipeline multiplexes its parallel stages onto this
  /// work-stealing pool instead of constructing one per instance.
  /// ThreadPool::parallelFor supports concurrent batches from distinct
  /// caller threads, so N Pipelines can share one pool — the pdwd daemon's
  /// execution model. Do not run() a *single* Pipeline from two threads.
  std::shared_ptr<util::ThreadPool> shared_pool;

  // ---- builder-style setters (each returns *this for chaining) ----------

  /// Objective weights alpha (N_wash), beta (L_wash), gamma (T_assay).
  PdwOptions& withWeights(double a, double b, double g) {
    alpha = a;
    beta = b;
    gamma = g;
    return *this;
  }

  /// Runtime width; see num_threads.
  PdwOptions& withThreads(int threads) {
    num_threads = threads;
    return *this;
  }

  /// Select the LP backend ("revised" / "dense") for both ILP stages.
  PdwOptions& withEngine(std::string name) {
    solver.withEngine(std::move(name));
    return *this;
  }

  /// Pin the scheduling-ILP budget (wall-clock seconds and, optionally, a
  /// branch-and-bound node cap). Suppresses the facade's default budget.
  PdwOptions& withScheduleBudget(double seconds, std::int64_t nodes = 0) {
    solver.withScheduleBudget(seconds, nodes);
    return *this;
  }

  /// Toggle root cutting planes for both ILP stages (see SolverConfig).
  PdwOptions& withCuts(bool enabled) {
    solver.withCuts(enabled);
    return *this;
  }
  PdwOptions& withCuts(bool gomory, bool cover) {
    solver.withCuts(gomory, cover);
    return *this;
  }

  /// Budget of each per-operation wash-path ILP.
  PdwOptions& withPathBudget(double seconds, std::int64_t nodes = 0) {
    solver.withPathBudget(seconds, nodes);
    return *this;
  }

  /// Enable the solver flight recorder in both ILP stages (see
  /// SolverConfig::withFlightRecording).
  PdwOptions& withFlightRecording(obs::FlightConfig config) {
    solver.withFlightRecording(std::move(config));
    return *this;
  }

  /// Disable excess-removal integration (paper §II-B ablation).
  PdwOptions& withoutIntegration() {
    enable_integration = false;
    return *this;
  }

  /// BFS heuristic wash paths instead of the path ILP.
  PdwOptions& withoutIlpPaths() {
    use_ilp_paths = false;
    return *this;
  }

  /// Greedy insertion instead of the scheduling ILP.
  PdwOptions& withoutIlpSchedule() {
    use_ilp_schedule = false;
    return *this;
  }

  /// Toggle the Type 1/2/3 wash-necessity exemptions (eqs. 9-11).
  PdwOptions& withNecessityExemptions(bool type1, bool type2, bool type3) {
    necessity.enable_type1 = type1;
    necessity.enable_type2 = type2;
    necessity.enable_type3 = type3;
    return *this;
  }

  /// Clustering window slack and maximum cluster span (wash::ClusterOptions).
  PdwOptions& withClusterWindow(double min_window_s, int max_span) {
    cluster.min_window_s = min_window_s;
    cluster.max_span = max_span;
    return *this;
  }

  /// Wash physics: flow velocity v_f [mm/s] and dissolution time t_d [s]
  /// (wash::WashParams, eq. 17).
  PdwOptions& withWashPhysics(double flow_velocity_mm_s,
                              double dissolution_s) {
    wash.flow_velocity_mm_s = flow_velocity_mm_s;
    wash.dissolution_s = dissolution_s;
    return *this;
  }

  /// Ordering-binary pruning horizon of the scheduling ILP (DESIGN.md §7).
  PdwOptions& withOrderHorizon(double seconds) {
    order_horizon_s = seconds;
    return *this;
  }

  /// Route-cache capacity in problems; 0 disables caching.
  PdwOptions& withRouteCache(std::size_t capacity) {
    route_cache_capacity = capacity;
    return *this;
  }

  /// Share an external route cache across Pipelines (see
  /// `shared_route_cache`). Passing nullptr reverts to a per-Pipeline cache.
  PdwOptions& withSharedRouteCache(std::shared_ptr<RouteCache> cache) {
    shared_route_cache = std::move(cache);
    return *this;
  }

  /// Share an external work-stealing pool across Pipelines (see
  /// `shared_pool`). Passing nullptr reverts to a per-Pipeline pool.
  PdwOptions& withSharedPool(std::shared_ptr<util::ThreadPool> pool) {
    shared_pool = std::move(pool);
    return *this;
  }
};

}  // namespace pdw::core
