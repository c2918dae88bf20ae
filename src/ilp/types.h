// Common vocabulary types for the ILP subsystem.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/flight.h"

namespace pdw::ilp {

/// Index of a decision variable inside a Model.
using VarId = int;

/// Index of a linear constraint inside a Model.
using ConstraintId = int;

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class VarType {
  Continuous,
  Integer,
  Binary,  ///< integer with implicit bounds [0, 1]
};

/// Constraint comparison sense: expr (sense) rhs.
enum class Sense {
  LessEqual,
  GreaterEqual,
  Equal,
};

enum class SolveStatus {
  Optimal,       ///< proven optimal (within tolerances)
  Feasible,      ///< feasible incumbent found, optimality not proven (limits)
  Infeasible,    ///< proven infeasible
  Unbounded,     ///< LP relaxation unbounded below
  IterLimit,     ///< simplex iteration cap hit without conclusion
  NodeLimit,     ///< branch-and-bound node cap hit without incumbent
  TimeLimit,     ///< wall-clock limit hit without incumbent
  Error,         ///< internal numerical failure
};

const char* toString(SolveStatus status);
const char* toString(Sense sense);

/// Outcome of one LP (relaxation) solve, shared by every LpBackend.
enum class LpStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterLimit,
};

struct LpResult {
  LpStatus status = LpStatus::IterLimit;
  double objective = 0.0;
  /// One value per model variable (integrality ignored).
  std::vector<double> values;
  std::int64_t iterations = 0;
  /// Basis (re)factorizations performed during this call (always 0 for the
  /// dense tableau backend, which has no factorized basis).
  std::int64_t factorizations = 0;
};

/// Search/solve statistics, filled by the solver.
struct SolveStats {
  std::int64_t simplex_iterations = 0;
  std::int64_t nodes_explored = 0;
  double best_bound = -kInfinity;  ///< proven lower bound (minimization)
  double wall_seconds = 0.0;
  /// Cutting planes materialized into the model by the root separation loop
  /// (cuts.h): total, per family, survivors after activity-based eviction,
  /// evicted count and separation rounds run. `cuts_added` counts every cut
  /// the loop added (== gomory + cover added), before eviction.
  int cuts_added = 0;
  int cuts_gomory = 0;
  int cuts_cover = 0;
  int cuts_gomory_active = 0;
  int cuts_cover_active = 0;
  int cuts_evicted = 0;
  int cut_rounds = 0;
  /// Node LPs run by the in-tree simplex engine (root + children).
  std::int64_t lp_solves = 0;
  /// Non-root node LPs re-optimized by the warm dual-simplex path vs. those
  /// that fell back to a cold two-phase primal solve.
  std::int64_t warm_hits = 0;
  std::int64_t warm_misses = 0;
  /// Dual-simplex pivots performed across all warm re-solves (subset of
  /// `simplex_iterations`, which also counts cold primal pivots).
  std::int64_t dual_pivots = 0;
  /// Integer variables fixed by reduced-cost bound tightening.
  std::int64_t rc_fixed = 0;
  /// Sparse-basis (re)factorizations across all node LPs (revised backend
  /// only; the dense tableau backend reports 0).
  std::int64_t refactorizations = 0;
};

/// Result of solving a Model. `values` is indexed by VarId of the *original*
/// model (presolve-eliminated variables are filled back in).
struct Solution {
  SolveStatus status = SolveStatus::Error;
  double objective = 0.0;
  std::vector<double> values;
  SolveStats stats;

  bool hasSolution() const {
    return status == SolveStatus::Optimal || status == SolveStatus::Feasible;
  }
  double value(VarId v) const { return values[static_cast<std::size_t>(v)]; }
  /// Convenience for 0-1 variables: value rounded to bool.
  bool boolValue(VarId v) const { return value(v) > 0.5; }
};

/// Branch-variable selection rule (branch_bound.cpp).
enum class BranchRule {
  /// Product-rule pseudocost scores learned from observed LP-bound
  /// degradations, falling back to most-fractional while a variable has no
  /// history in either direction. The default.
  Pseudocost,
  /// The pre-PR-6 rule: branch on the integer variable whose LP value is
  /// farthest from integral. Kept selectable for A/B runs.
  MostFractional,
};

/// Root cutting-plane knobs (cuts.h). Cuts are generated once at the root
/// of every MIP solve and materialized as ordinary model rows, so the
/// search rides the warm-start contract unchanged (no rows are ever added
/// mid-search).
struct CutParams {
  bool enabled = true;   ///< master switch for the root separation loop
  bool gomory = true;    ///< Gomory mixed-integer cuts from the tableau
  bool cover = true;     ///< knapsack-cover cuts on 0-1 rows
  int max_rounds = 8;    ///< separation rounds at the root
  int max_per_round = 32;  ///< cut cap per round (most-violated first)
  /// Gomory cuts with more than max(16, max_support_frac * numVars())
  /// nonzero model terms are discarded: dense cut rows destroy the basis-LU
  /// sparsity and cost more per simplex iteration across the whole search
  /// than their root-bound improvement buys back.
  double max_support_frac = 0.4;
  /// Tailing-off guard: stop separating when a round improves the root LP
  /// bound by less than tailoff_tol * (1 + |bound|).
  double tailoff_tol = 1e-4;
  /// A pool cut slack at the round's LP optimum for this many consecutive
  /// rounds is evicted before the cuts are materialized for the search.
  int evict_after_rounds = 2;
};

/// Knobs for the solver; defaults suit the PDW models.
struct SolveParams {
  /// LP engine for every node-LP / pure-LP solve, resolved through the
  /// LpBackend registry (lp_backend.h). "" picks the registry default
  /// ("revised", the sparse revised simplex); "dense" selects the dense
  /// tableau engine kept as the cross-check oracle.
  std::string engine;
  double time_limit_seconds = 10.0;
  std::int64_t node_limit = 200000;
  std::int64_t simplex_iteration_limit = 400000;
  double integrality_tol = 1e-6;
  double feasibility_tol = 1e-7;
  double mip_gap = 1e-6;        ///< relative gap for early stop
  bool enable_presolve = true;
  /// Probing presolve (presolve.h): tentatively fix each binary both ways,
  /// propagate, fix variables whose one branch is infeasible and tighten
  /// bounds valid across both branches. Requires enable_presolve.
  bool probing = true;
  /// Big-M coefficient strengthening in presolve: shrink binary big-M
  /// coefficients to the smallest value the activity bounds prove
  /// sufficient. Requires enable_presolve.
  bool coef_tightening = true;
  /// Root cutting planes; see CutParams.
  CutParams cuts;
  /// Branch-variable selection; see BranchRule.
  BranchRule branch_rule = BranchRule::Pseudocost;
  bool log_progress = false;
  /// Optional warm start (one value per model variable). If it is feasible
  /// it seeds the branch-and-bound incumbent, so the solver never returns
  /// anything worse than this point (the paper's "best-effort within the
  /// time limit" semantics).
  std::vector<double> warm_start;
  /// Warm re-entry repair (the delta-solve path): clamp each warm-start
  /// value into its variable's bounds before the feasibility check. A warm
  /// point projected from a previous solve of a *perturbed* model (slightly
  /// widened horizon, re-pinned binaries) often sits epsilon outside the new
  /// box while remaining structurally sound; clamping lets it seed the
  /// incumbent instead of being rejected wholesale. Never loosens the
  /// feasibility check itself — a clamped-but-violating point is still
  /// rejected.
  bool warm_clamp = false;
  /// Warm-start node LP relaxations with the dual simplex from the previous
  /// node's optimal basis (the basis stays dual-feasible under bound
  /// changes). Falls back to the cold two-phase primal deterministically, so
  /// results are identical either way — this is a speed knob for ablation.
  bool warm_lp = true;
  /// Fix integer variables whose reduced cost proves they cannot move
  /// without exceeding the incumbent (applied to both children at branch
  /// time). Never cuts off an improving solution.
  bool rc_fixing = true;
  /// Iteration count after which pricing switches to Bland's rule inside one
  /// LP solve (anti-cycling). 0 = automatic (scales with model size); tests
  /// set 1 to exercise the Bland path directly.
  std::int64_t bland_iteration_override = 0;
  /// Flight recorder (obs/flight.h): when `flight.enabled`, every
  /// branch-and-bound lane records structured search events into a bounded
  /// ring and dumps them as `pdw-flight-1` JSONL per the config's triggers
  /// (explicit path, budget-capped solve, slow solve). Off by default —
  /// disabled lanes pay one null check per event site.
  obs::FlightConfig flight;
};

/// Compact one-line description of the solver knobs that affect results or
/// performance ("engine=revised tl=4 nodes=60000 ..."), stamped into
/// `pdw-run-1` records so stored runs are only compared within one
/// configuration. Defined in solver.cpp.
std::string fingerprint(const SolveParams& params);

}  // namespace pdw::ilp
