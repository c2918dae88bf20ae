// cold-schedule: one caller, one lane, a fresh pdw::Pipeline::run per
// instance, repeated in whole suite passes.
//
// Untraced (--trace 0): every pass is the same fixed work (same instances,
// node-capped solves), so every plan must repeat byte-for-byte across
// passes, and each instance's fastest solve is its timing.
//
// Traced (--trace 1): untraced passes alternate with staged replays. A
// replay calls the pipeline stages through each layer's public functions
// (ContaminationTracker, analyzeWashNecessity, clusterTargets,
// routeWashPathIlp per operation, solveWashSchedule), timing each call from
// here and diffing registry counters around it. Like Pipeline::run, it
// memoizes routes within an instance (core::RouteCache). The staged plan
// must be byte-identical to Pipeline::run's, and the layer times must add up
// to the replay's wall (ledger closure).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/route_cache.h"
#include "core/schedule_ilp.h"
#include "core/wash_path_ilp.h"
#include "obs/metric_names.h"
#include "perfbench.h"
#include "service/protocol.h"
#include "sim/validator.h"
#include "util/thread_pool.h"
#include "wash/contamination.h"
#include "wash/necessity.h"
#include "wash/rescheduler.h"

namespace perfbench {

namespace names = pdw::obs::names;

namespace {

/// The suite (why these instances and this cap: README.md).
const std::vector<pdw::assay::BenchmarkId> kSuite = {
    pdw::assay::BenchmarkId::Pcr, pdw::assay::BenchmarkId::Ivd,
    pdw::assay::BenchmarkId::KinaseAct1};
constexpr std::int64_t kScheduleNodes = 400;
/// Wall of one suite pass on the reference host. The pass count is
/// --seconds over it, fixed before anything is timed, so a run's work never
/// depends on speed.
constexpr double kNominalPassS = 2.6;

pdw::core::PdwOptions coldOptions() {
  pdw::core::PdwOptions options;
  options.withThreads(1)
      .withScheduleBudget(kClockLimitS, kScheduleNodes)
      .withPathBudget(kClockLimitS, kPathNodes);
  return options;
}

/// What one cold solve produced, for the cross-pass and cross-mode checks.
struct Plan {
  std::string canonical;
  int n_wash = 0;
  double l_wash_mm = 0.0;
  double t_assay_s = 0.0;
  bool optimal = false;
};

Plan planOf(const pdw::assay::AssaySchedule& schedule, bool optimal) {
  Plan p;
  p.canonical = pdw::service::canonicalPlan(schedule);
  p.n_wash = schedule.washCount();
  p.l_wash_mm = schedule.washLengthMm();
  p.t_assay_s = schedule.completionTime();
  p.optimal = optimal;
  return p;
}

struct Pass {
  double wall_ms = 0.0;
  std::vector<double> op_ms;  ///< one per instance, indexed like the suite
  std::vector<Plan> plans;    ///< indexed like the suite
};

/// One untraced suite pass in `order`. Only the solves are timed; each plan
/// is then checked (validator, fixed-work guard, no dropped operations)
/// into `report`.
Pass coldPass(const std::vector<std::unique_ptr<Instance>>& suite,
              const std::vector<std::size_t>& order, Report& report) {
  Pass pass;
  pass.op_ms.assign(suite.size(), 0.0);
  std::vector<pdw::PdwResult> results(suite.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t i : order) {
    const Clock::time_point t0 = Clock::now();
    pdw::Pipeline pipeline(coldOptions());
    results[i] = pipeline.run(suite[i]->synth.schedule);
    pass.op_ms[i] = msBetween(t0, Clock::now());
  }
  pass.wall_ms = msBetween(start, Clock::now());

  for (std::size_t i = 0; i < suite.size(); ++i) {
    const pdw::PdwResult& result = results[i];
    const std::string& name = suite[i]->benchmark.name;
    ++report.attempted;
    bool ok = true;
    if (result.solver.schedule.wall_seconds >= kGuardShare * kClockLimitS) {
      report.fail(name + ": scheduling solve approached its clock limit");
      ok = false;
    }
    if (result.unroutable_operations != 0) {
      report.fail(name + ": dropped unroutable wash operations");
      ok = false;
    }
    const pdw::sim::ValidationResult valid =
        pdw::sim::validateSchedule(result.schedule());
    if (!valid.ok()) {
      report.fail(name + ": invalid plan: " + valid.summary());
      ok = false;
    }
    if (!ok) ++report.failed;
    pass.plans.push_back(planOf(result.schedule(), result.plan.proven_optimal));
  }
  return pass;
}

/// Per-layer totals of the staged replay.
struct Layers {
  double necessity_ms = 0.0, cluster_ms = 0.0;
  std::int64_t targets = 0, operations = 0;
  double route_ms = 0.0;
  std::vector<double> route_op_ms;
  std::int64_t route_ilp_solves = 0, route_cut_rounds = 0,
               route_fallbacks = 0, route_nodes = 0, route_iterations = 0;
  double schedule_ms = 0.0;
  std::int64_t schedule_nodes = 0, schedule_iterations = 0,
               schedule_dual_pivots = 0, schedule_refactorizations = 0,
               schedule_warm_hits = 0, schedule_warm_misses = 0,
               schedule_cuts_added = 0, schedule_optimal = 0,
               schedule_greedy_fallbacks = 0;
  double wall_ms = 0.0;
};

/// The ILP counters a layer call is charged with (registry deltas).
struct IlpCounters {
  std::int64_t nodes, iterations, dual_pivots, refactorizations, warm_hits,
      warm_misses, cuts_added, path_solves, path_cuts, path_fallbacks;

  static IlpCounters read() {
    return {counterValue(names::kBbNodes),
            counterValue(names::kSimplexIterations),
            counterValue(names::kSimplexDualPivots),
            counterValue(names::kSimplexRefactorizations),
            counterValue(names::kSimplexWarmHits),
            counterValue(names::kSimplexWarmMisses),
            counterValue(names::kCutsAdded),
            counterValue(names::kPathIlpSolves),
            counterValue(names::kPathIlpConnectivityCuts),
            counterValue(names::kPathIlpFallbacks)};
  }
  IlpCounters operator-(const IlpCounters& o) const {
    return {nodes - o.nodes,
            iterations - o.iterations,
            dual_pivots - o.dual_pivots,
            refactorizations - o.refactorizations,
            warm_hits - o.warm_hits,
            warm_misses - o.warm_misses,
            cuts_added - o.cuts_added,
            path_solves - o.path_solves,
            path_cuts - o.path_cuts,
            path_fallbacks - o.path_fallbacks};
  }
};

/// Pipeline::run's stages, called one by one with the options the Pipeline
/// constructor resolves for coldOptions() (one lane: no portfolio race).
pdw::assay::AssaySchedule stagedSolve(const Instance& inst, Layers& layers,
                                      bool* optimal) {
  pdw::core::PdwOptions options = coldOptions();
  options.path.solver = options.solver.path;
  pdw::util::ThreadPool pool(1);
  pdw::core::RouteCache cache(options.route_cache_capacity);
  const pdw::assay::AssaySchedule& base = inst.synth.schedule;
  const Clock::time_point start = Clock::now();

  Clock::time_point t0 = Clock::now();
  const pdw::wash::ContaminationTracker tracker(base);
  pdw::wash::NecessityResult necessity =
      pdw::wash::analyzeWashNecessity(tracker, options.necessity);
  layers.necessity_ms += msBetween(t0, Clock::now());
  layers.targets += necessity.stats.targets;
  *optimal = false;
  if (necessity.targets.empty()) {
    *optimal = true;
    layers.wall_ms += msBetween(start, Clock::now());
    return base;
  }

  t0 = Clock::now();
  std::vector<pdw::wash::WashOperation> washes =
      pdw::wash::clusterTargets(std::move(necessity.targets), options.cluster);
  layers.cluster_ms += msBetween(t0, Clock::now());
  layers.operations += static_cast<std::int64_t>(washes.size());

  std::vector<pdw::wash::WashOperation> routed;
  for (pdw::wash::WashOperation& w : washes) {
    const std::vector<pdw::arch::Cell> cells = w.targetCells();
    const IlpCounters before = IlpCounters::read();
    t0 = Clock::now();
    // Pipeline::run memoizes routes within a run: operations with the same
    // target cells reuse the first one's path.
    const pdw::core::RouteKey key = pdw::core::RouteCache::makeKey(
        base.chip(), cells, options.use_ilp_paths, options.path);
    std::optional<pdw::arch::FlowPath> path;
    if (auto cached = cache.lookup(key)) {
      path = std::move(*cached);
    } else {
      path = pdw::core::routeWashPathIlp(base.chip(), cells, options.path);
      if (!path) {
        path = pdw::core::routeWashPathHeuristic(base.chip(), cells,
                                                 options.path.avoid_cells);
        ++layers.route_fallbacks;
      }
      cache.insert(key, path);
    }
    const double ms = msBetween(t0, Clock::now());
    const IlpCounters d = IlpCounters::read() - before;
    layers.route_ms += ms;
    layers.route_op_ms.push_back(ms);
    layers.route_ilp_solves += d.path_solves;
    layers.route_cut_rounds += d.path_cuts;
    layers.route_fallbacks += d.path_fallbacks;
    layers.route_nodes += d.nodes;
    layers.route_iterations += d.iterations;
    if (path) {
      w.path = *path;
      routed.push_back(std::move(w));
    }
  }

  pdw::core::ScheduleIlpOptions ilp_options;
  ilp_options.alpha = options.alpha;
  ilp_options.beta = options.beta;
  ilp_options.gamma = options.gamma;
  ilp_options.wash = options.wash;
  ilp_options.order_horizon_s = options.order_horizon_s;
  ilp_options.enable_integration = options.enable_integration;
  ilp_options.solver = options.solver.schedule;
  ilp_options.pool = &pool;
  const IlpCounters before = IlpCounters::read();
  t0 = Clock::now();
  pdw::core::ScheduleIlpResult ilp =
      pdw::core::solveWashSchedule(base, routed, ilp_options);
  pdw::assay::AssaySchedule schedule;
  if (ilp.success) {
    schedule = std::move(ilp.schedule);
    *optimal = ilp.proven_optimal;
  } else {
    ++layers.schedule_greedy_fallbacks;
    schedule = pdw::wash::rescheduleWithWashes(base, routed, options.wash,
                                               &pool);
  }
  const Clock::time_point end = Clock::now();
  const IlpCounters d = IlpCounters::read() - before;
  layers.schedule_ms += msBetween(t0, end);
  layers.schedule_nodes += d.nodes;
  layers.schedule_iterations += d.iterations;
  layers.schedule_dual_pivots += d.dual_pivots;
  layers.schedule_refactorizations += d.refactorizations;
  layers.schedule_warm_hits += d.warm_hits;
  layers.schedule_warm_misses += d.warm_misses;
  layers.schedule_cuts_added += d.cuts_added;
  if (*optimal) ++layers.schedule_optimal;
  layers.wall_ms += msBetween(start, end);
  return schedule;
}

void setSuiteQuality(const std::vector<Plan>& plans, Report& report) {
  double n_wash = 0, l_wash = 0, t_assay = 0;
  for (const Plan& p : plans) {
    n_wash += p.n_wash;
    l_wash += p.l_wash_mm;
    t_assay += p.t_assay_s;
  }
  report.set("n_wash", n_wash);
  report.set("l_wash_mm", l_wash);
  report.set("t_assay_s", t_assay);
}

}  // namespace

int runCold(const Args& args, Report& report) {
  // Set-up: instance synthesis. Host speed drifts over seconds, so besides
  // the rounds here a few more run after every pass, and set-up time is the
  // median of them all.
  std::vector<double> synth_ms = synthesisRoundsMs(kSuite, 15);
  const auto moreSynthesisRounds = [&] {
    const std::vector<double> more = synthesisRoundsMs(kSuite, 5);
    synth_ms.insert(synth_ms.end(), more.begin(), more.end());
  };
  const std::vector<std::unique_ptr<Instance>> suite = synthesizeAll(kSuite);

  // The seed orders the suite. Instances are fixed Table-II inputs, so that
  // is all it may change: plans and work must repeat on every seed.
  std::vector<std::size_t> order(suite.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(args.seed);
  rng.shuffle(order);

  if (!args.trace) {
    const int num_passes =
        std::max(1, static_cast<int>(
                        std::lround(args.seconds / kNominalPassS)));
    std::vector<Pass> passes;
    for (int p = 0; p < num_passes; ++p) {
      passes.push_back(coldPass(suite, order, report));
      moreSynthesisRounds();
      std::fprintf(stderr, "perfbench: pass %d/%d %.3f s\n", p + 1,
                   num_passes, passes.back().wall_ms / 1000.0);
    }
    // Passes repeat identical work, and the host only ever adds time, so
    // each instance's fastest solve is its least-disturbed measurement.
    std::vector<double> floor_ms(suite.size(), 0.0);
    for (std::size_t i = 0; i < suite.size(); ++i) {
      floor_ms[i] = passes[0].op_ms[i];
      for (const Pass& p : passes) {
        floor_ms[i] = std::min(floor_ms[i], p.op_ms[i]);
        if (p.plans[i].canonical != passes[0].plans[i].canonical) {
          report.fail(suite[i]->benchmark.name +
                      ": plan differs between passes (work is not fixed)");
          ++report.failed;
        }
      }
    }
    const double wall_s = sum(floor_ms) / 1000.0;
    report.set("setup_s", median(synth_ms) / 1000.0);
    report.set("wall_s", wall_s);
    report.set("ops_per_s", static_cast<double>(suite.size()) / wall_s);
    report.set("op_p50_ms", percentile(floor_ms, 50));
    report.set("op_p90_ms", percentile(floor_ms, 90));
    setSuiteQuality(passes[0].plans, report);
    report.set("pass_frac",
               ratio(static_cast<double>(report.attempted - report.failed),
                     static_cast<double>(report.attempted)));
    report.set("peak_rss_mb", peakRssMb());
    return 0;
  }

  // Traced: untraced reference passes alternate with staged replays; each
  // side keeps its fastest pass (the host only ever adds time).
  const int reps = std::max(
      1, static_cast<int>(
             std::lround(args.seconds / kNominalPassS / 2.0)));
  Pass reference;
  Layers layers;
  double cache_hits = 0.0, cache_misses = 0.0;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t hits0 = counterValue(names::kRouteCacheHits);
    const std::int64_t misses0 = counterValue(names::kRouteCacheMisses);
    Pass pass = coldPass(suite, order, report);
    moreSynthesisRounds();
    cache_hits =
        static_cast<double>(counterValue(names::kRouteCacheHits) - hits0);
    cache_misses =
        static_cast<double>(counterValue(names::kRouteCacheMisses) - misses0);

    Layers staged_layers;
    for (std::size_t i : order) {
      bool optimal = false;
      const pdw::assay::AssaySchedule staged =
          stagedSolve(*suite[i], staged_layers, &optimal);
      const Plan plan = planOf(staged, optimal);
      if (plan.canonical != pass.plans[i].canonical ||
          plan.optimal != pass.plans[i].optimal) {
        report.fail(suite[i]->benchmark.name +
                    ": staged plan differs from Pipeline::run");
        ++report.failed;
      }
    }
    std::fprintf(stderr, "perfbench: rep %d/%d run %.3f s, staged %.3f s\n",
                 r + 1, reps, pass.wall_ms / 1000.0,
                 staged_layers.wall_ms / 1000.0);
    if (r == 0 || pass.wall_ms < reference.wall_ms) reference = std::move(pass);
    if (r == 0 || staged_layers.wall_ms < layers.wall_ms)
      layers = std::move(staged_layers);
  }

  Ledger ledger;
  ledger.wall_ms = layers.wall_ms;
  ledger.self_ms["wash"] = layers.necessity_ms + layers.cluster_ms;
  ledger.self_ms["core.route"] = layers.route_ms;
  ledger.self_ms["core.schedule"] = layers.schedule_ms;
  ledger.close(report);

  report.set("synth.synthesize_ms", median(synth_ms));
  report.set("wash.necessity_ms", layers.necessity_ms);
  report.set("wash.targets", static_cast<double>(layers.targets));
  report.set("wash.cluster_ms", layers.cluster_ms);
  report.set("wash.operations", static_cast<double>(layers.operations));
  report.set("core.route.ms", layers.route_ms);
  report.set("core.route.ops", static_cast<double>(layers.route_op_ms.size()));
  report.set("core.route.op_p50_ms", percentile(layers.route_op_ms, 50));
  report.set("core.route.op_max_ms", percentile(layers.route_op_ms, 100));
  report.set("core.route.ilp_solves",
             static_cast<double>(layers.route_ilp_solves));
  report.set("core.route.cut_rounds",
             static_cast<double>(layers.route_cut_rounds));
  report.set("core.route.fallbacks",
             static_cast<double>(layers.route_fallbacks));
  report.set("core.route.nodes", static_cast<double>(layers.route_nodes));
  report.set("core.route.iterations",
             static_cast<double>(layers.route_iterations));
  const double iters = static_cast<double>(layers.schedule_iterations);
  report.set("core.schedule.ms", layers.schedule_ms);
  report.set("core.schedule.nodes", static_cast<double>(layers.schedule_nodes));
  report.set("core.schedule.iterations", iters);
  report.set("core.schedule.dual_pivots",
             static_cast<double>(layers.schedule_dual_pivots));
  report.set("core.schedule.refactorizations",
             static_cast<double>(layers.schedule_refactorizations));
  report.set("core.schedule.us_per_iteration",
             ratio(layers.schedule_ms * 1000.0, iters));
  report.set("core.schedule.iterations_per_node",
             ratio(iters, static_cast<double>(layers.schedule_nodes)));
  report.set("core.schedule.warm_hit_ratio",
             ratio(static_cast<double>(layers.schedule_warm_hits),
                   static_cast<double>(layers.schedule_warm_hits +
                                       layers.schedule_warm_misses)));
  report.set("core.schedule.cuts_added",
             static_cast<double>(layers.schedule_cuts_added));
  report.set("core.schedule.optimal",
             static_cast<double>(layers.schedule_optimal));
  report.set("core.schedule.greedy_fallbacks",
             static_cast<double>(layers.schedule_greedy_fallbacks));
  report.set("core.route_cache.hit_ratio",
             ratio(cache_hits, cache_hits + cache_misses));
  // Cold solves call the library directly: no incremental path and no
  // service layer on this workload.
  report.notExercised({"core.resolve.frontier_share",
                       "core.resolve.routes_reused",
                       "core.resolve.full_fallbacks",
                       "core.resolve.greedy_fallbacks", "service.parse_us",
                       "service.serialize_us", "service.queue_ms_p50",
                       "service.plan_cache.hit_ratio", "service.errors",
                       "service.hit_p50_ms", "service.hit_p99_ms",
                       "service.resolve_p50_ms", "service.resolve_p90_ms"});
  report.set("trace.overhead_frac",
             ratio(layers.wall_ms - reference.wall_ms, reference.wall_ms));
  report.set("ledger.unattributed_frac", ledger.unattributedShare());
  return 0;
}

}  // namespace perfbench
