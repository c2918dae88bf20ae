#include "ilp/branch_bound.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <queue>

#include "ilp/cuts.h"
#include "ilp/lp_backend.h"
#include "ilp/simplex.h"
#include "obs/flight.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace pdw::ilp {

namespace {

/// Fold one finished MIP solve into the registry. Counters are batched here
/// — once per solve, from the already-collected SolveStats — so the search
/// loop itself carries no per-node counter cost. The simplex call/iteration
/// counters are only added when the solve ran node LPs through the in-tree
/// engine (lp_solves > 0); pure-LP models delegate to solveLp, which counts
/// itself.
void recordMipSolve(const Solution& result, double wall_seconds) {
  namespace names = obs::names;
  obs::Registry& reg = obs::Registry::instance();
  static obs::Counter& solves = reg.counter(names::kBbSolves);
  static obs::Counter& nodes = reg.counter(names::kBbNodes);
  static obs::Counter& rc_fixed = reg.counter(names::kBbRcFixed);
  static obs::Counter& simplex_calls = reg.counter(names::kSimplexCalls);
  static obs::Counter& simplex_iters = reg.counter(names::kSimplexIterations);
  static obs::Counter& warm_hits = reg.counter(names::kSimplexWarmHits);
  static obs::Counter& warm_misses = reg.counter(names::kSimplexWarmMisses);
  static obs::Counter& dual_pivots = reg.counter(names::kSimplexDualPivots);
  static obs::Counter& refactorizations =
      reg.counter(names::kSimplexRefactorizations);
  static obs::Counter& cuts_added = reg.counter(names::kCutsAdded);
  static obs::Counter& cuts_gomory = reg.counter(names::kCutsGomory);
  static obs::Counter& cuts_cover = reg.counter(names::kCutsCover);
  static obs::Counter& cuts_active = reg.counter(names::kCutsActive);
  static obs::Counter& cuts_evicted = reg.counter(names::kCutsEvicted);
  static obs::Histogram& seconds = reg.histogram(names::kSolveSeconds);
  solves.increment();
  cuts_added.add(result.stats.cuts_added);
  cuts_gomory.add(result.stats.cuts_gomory);
  cuts_cover.add(result.stats.cuts_cover);
  cuts_active.add(result.stats.cuts_gomory_active +
                  result.stats.cuts_cover_active);
  cuts_evicted.add(result.stats.cuts_evicted);
  nodes.add(result.stats.nodes_explored);
  rc_fixed.add(result.stats.rc_fixed);
  if (result.stats.lp_solves > 0) {
    simplex_calls.add(result.stats.lp_solves);
    simplex_iters.add(result.stats.simplex_iterations);
  }
  warm_hits.add(result.stats.warm_hits);
  warm_misses.add(result.stats.warm_misses);
  dual_pivots.add(result.stats.dual_pivots);
  refactorizations.add(result.stats.refactorizations);
  seconds.observe(wall_seconds);
}

using Clock = std::chrono::steady_clock;

struct Node {
  int parent = -1;    ///< index into the node arena, -1 for root
  VarId var = -1;     ///< variable whose bound this node changes
  double lower = 0.0;
  double upper = 0.0;
  double bound = -kInfinity;  ///< LP bound inherited from the parent
  int depth = 0;
  /// Reduced-cost fixes discovered at this node (range into the shared
  /// fix arena); they bind the whole subtree.
  int extra_begin = 0;
  int extra_count = 0;
  /// Pseudocost bookkeeping: which branch direction created this node and
  /// how far the parent's LP value was from the bound imposed (f for the
  /// down child, 1-f for the up child). When the node's own LP solves, the
  /// observed bound degradation divided by this distance updates `var`'s
  /// pseudocost in that direction.
  bool up_branch = false;
  double branch_dist = 0.0;
};

struct QueueEntry {
  double bound;
  int node;
  /// Best-bound first; among equal bounds, prefer the newest node (largest
  /// id). Freshly pushed children are popped right after their parent, so
  /// the simplex engine's warm state is usually one bound change away.
  bool operator>(const QueueEntry& other) const {
    if (bound != other.bound) return bound > other.bound;
    return node < other.node;
  }
};

class BranchAndBound {
 public:
  /// `flight`, when non-null, is a caller-owned recorder the search records
  /// into — solveMip shares it with the root separation loop so cut events
  /// and the search land in one dump block. It must outlive the
  /// BranchAndBound.
  BranchAndBound(const Model& model, const SolveParams& params,
                 obs::FlightRecorder* flight)
      : model_(model),
        params_(params),
        flight_(flight),
        engine_(makeLpBackend(params.engine, model, params)),
        start_(Clock::now()) {
    for (VarId v = 0; v < model.numVars(); ++v)
      if (model.var(v).type != VarType::Continuous) integer_vars_.push_back(v);
    if (flight_) engine_->setFlightRecorder(flight_);
    if (params.branch_rule == BranchRule::Pseudocost) {
      const std::size_t n = static_cast<std::size_t>(model.numVars());
      pc_sum_[0].assign(n, 0.0);
      pc_sum_[1].assign(n, 0.0);
      pc_count_[0].assign(n, 0);
      pc_count_[1].assign(n, 0);
    }
  }

  Solution run() {
    Solution result;
    lower_.resize(static_cast<std::size_t>(model_.numVars()));
    upper_.resize(static_cast<std::size_t>(model_.numVars()));
    for (VarId v = 0; v < model_.numVars(); ++v) {
      lower_[static_cast<std::size_t>(v)] = model_.var(v).lower;
      upper_[static_cast<std::size_t>(v)] = model_.var(v).upper;
    }

    // Warm start: a feasible caller-provided point seeds the incumbent.
    if (params_.warm_start.size() ==
        static_cast<std::size_t>(model_.numVars())) {
      std::vector<double> warm = params_.warm_start;
      for (VarId v : integer_vars_)
        warm[static_cast<std::size_t>(v)] =
            std::round(warm[static_cast<std::size_t>(v)]);
      if (params_.warm_clamp) {
        // Warm re-entry: project the point into the variable box first
        // (stale-by-epsilon values from a previous solve of a perturbed
        // model); the full feasibility check below still decides.
        for (VarId v = 0; v < model_.numVars(); ++v) {
          double& value = warm[static_cast<std::size_t>(v)];
          value = std::clamp(value, model_.var(v).lower, model_.var(v).upper);
        }
      }
      const std::string violation = model_.firstViolation(warm, 1e-5);
      if (violation.empty()) {
        incumbent_ = std::move(warm);
        incumbent_obj_ = model_.objective().evaluate(incumbent_);
        has_incumbent_ = true;
      } else {
        PDW_LOG(Info, "ilp") << "warm start rejected: " << violation;
      }
    }

    nodes_.push_back(Node{});  // root: no bound change
    on_path_.push_back(1);
    path_.push_back(Frame{0, 0});
    open_.push(QueueEntry{-kInfinity, 0});

    static obs::Histogram& pivots_per_node = obs::Registry::instance()
        .histogram(obs::names::kSimplexPivotsPerNode);

    if (flight_)
      flight_->record(obs::FlightEventKind::SolveBegin, 0,
                      static_cast<double>(model_.numVars()),
                      static_cast<double>(integer_vars_.size()));

    bool hit_limit = false;
    bool lp_trouble = false;

    while (!open_.empty()) {
      if (elapsedSeconds() > params_.time_limit_seconds ||
          stats_.nodes_explored >= params_.node_limit ||
          stats_.simplex_iterations >= params_.simplex_iteration_limit) {
        hit_limit = true;
        break;
      }

      const QueueEntry entry = open_.top();
      open_.pop();
      if (entry.bound >= pruneBound() - absTol()) {
        // Pruned before its LP ran: the incumbent improved since this node
        // was queued. It gets a NodePruned event but no NodeOpen, so the
        // NodeOpen count stays equal to stats_.nodes_explored.
        if (flight_)
          flight_->record(obs::FlightEventKind::NodePruned, entry.node,
                          entry.bound, obs::kPruneReasonInheritedBound);
        continue;
      }

      moveTo(entry.node);
      ++stats_.nodes_explored;
      if (flight_) {
        // chain_ still holds the frames moveTo() just applied, so its size
        // is the path distance walked to reach this node.
        flight_->record(obs::FlightEventKind::BoundDelta, entry.node,
                        static_cast<double>(chain_.size()));
        flight_->record(
            obs::FlightEventKind::NodeOpen, entry.node, entry.bound,
            static_cast<double>(
                nodes_[static_cast<std::size_t>(entry.node)].depth));
      }

      // Node LP: warm dual re-solve from the engine's current basis when
      // possible, cold two-phase primal otherwise. The root is always cold
      // (there is no prior basis) and counts as neither hit nor miss.
      bool used_warm = false;
      std::int64_t dual_pivots = 0;
      LpResult lp =
          engine_->solve(lower_, upper_, params_.warm_lp && entry.node != 0,
                         &used_warm, &dual_pivots);
      ++stats_.lp_solves;
      stats_.simplex_iterations += lp.iterations;
      stats_.dual_pivots += dual_pivots;
      stats_.refactorizations += lp.factorizations;
      if (entry.node != 0) {
        if (used_warm) ++stats_.warm_hits;
        else ++stats_.warm_misses;
      }
      pivots_per_node.observe(static_cast<double>(lp.iterations));
      if (flight_) {
        // WarmMiss mirrors the stats_.warm_misses condition exactly, so the
        // dump's count reconciles with ilp.simplex.warm_misses.
        if (entry.node != 0 && !used_warm)
          flight_->record(obs::FlightEventKind::WarmMiss, entry.node);
        flight_->record(obs::FlightEventKind::NodeSolved, entry.node,
                        lp.objective, static_cast<double>(lp.iterations));
      }

      if (lp.status == LpStatus::Infeasible) {
        if (flight_)
          flight_->record(obs::FlightEventKind::NodePruned, entry.node, 0.0,
                          obs::kPruneReasonInfeasible);
        continue;
      }
      if (lp.status == LpStatus::Unbounded) {
        // Unboundedness of a node relaxation implies the MILP is unbounded
        // unless integrality cuts it off; we report it conservatively only
        // from the root node.
        if (entry.node == 0 && !has_incumbent_) {
          result.status = SolveStatus::Unbounded;
          fillStats(result);
          maybeDumpFlight(result, false);
          return result;
        }
        lp_trouble = true;
        continue;
      }
      if (lp.status == LpStatus::IterLimit) {
        lp_trouble = true;  // optimality can no longer be certified
        continue;
      }

      // Pseudocost learning: this node's LP bound degradation relative to
      // its parent, normalized by the fractional distance its branch
      // imposed. Updated before any pruning so pruned nodes teach too.
      if (params_.branch_rule == BranchRule::Pseudocost && entry.node != 0) {
        const Node& node = nodes_[static_cast<std::size_t>(entry.node)];
        if (node.var >= 0 && node.branch_dist > 1e-9 &&
            std::isfinite(node.bound)) {
          const int dir = node.up_branch ? 1 : 0;
          const double degradation =
              std::max(0.0, lp.objective - node.bound) / node.branch_dist;
          pc_sum_[dir][static_cast<std::size_t>(node.var)] += degradation;
          ++pc_count_[dir][static_cast<std::size_t>(node.var)];
          pc_total_[dir] += degradation;
          ++pc_observations_[dir];
        }
      }

      if (lp.objective >= pruneBound() - absTol()) {
        if (flight_)
          flight_->record(obs::FlightEventKind::NodePruned, entry.node,
                          lp.objective, obs::kPruneReasonLpBound);
        continue;
      }

      const VarId branch_var = pickBranchVariable(lp.values);
      if (branch_var < 0) {
        acceptIncumbent(lp);
        if (gapClosed()) break;
        continue;
      }

      // Reduced-cost fixing: variables the node optimum proves immovable in
      // any improving solution are fixed for the whole subtree (both
      // children inherit the fixes through the node's extra range).
      if (params_.rc_fixing && has_incumbent_) {
        fix_buffer_.clear();
        engine_->collectReducedCostFixes(pruneBound() - lp.objective,
                                         params_.integrality_tol,
                                         &fix_buffer_);
        if (!fix_buffer_.empty()) applyRcFixes(entry.node);
      }

      const double value = lp.values[static_cast<std::size_t>(branch_var)];
      if (flight_)
        flight_->record(obs::FlightEventKind::NodeBranched, entry.node,
                        static_cast<double>(branch_var), value);
      const double floor_value = std::floor(value + params_.integrality_tol);
      const double frac =
          std::min(1.0, std::max(0.0, value - floor_value));
      pushChild(entry.node, branch_var,
                lower_[static_cast<std::size_t>(branch_var)], floor_value,
                lp.objective, frac, /*up_branch=*/false);
      pushChild(entry.node, branch_var, floor_value + 1.0,
                upper_[static_cast<std::size_t>(branch_var)], lp.objective,
                1.0 - frac, /*up_branch=*/true);
    }

    fillStats(result);
    if (has_incumbent_) {
      result.objective = incumbent_obj_;
      result.values = incumbent_;
      result.status = (hit_limit || lp_trouble || !open_.empty())
                          ? SolveStatus::Feasible
                          : SolveStatus::Optimal;
      if (gapClosed()) result.status = SolveStatus::Optimal;
    } else if (hit_limit) {
      result.status = elapsedSeconds() > params_.time_limit_seconds
                          ? SolveStatus::TimeLimit
                          : SolveStatus::NodeLimit;
    } else if (lp_trouble) {
      result.status = SolveStatus::IterLimit;
    } else {
      result.status = SolveStatus::Infeasible;
    }
    maybeDumpFlight(result, hit_limit);
    return result;
  }

 private:
  double absTol() const { return 1e-9; }

  void maybeDumpFlight(const Solution& result, bool hit_limit) const {
    if (flight_ &&
        flight_->shouldDump(hit_limit, result.stats.wall_seconds)) {
      flight_->dump(toString(result.status), result.stats.wall_seconds);
    }
  }

  /// Objective threshold for pruning: the incumbent objective.
  double pruneBound() const {
    return has_incumbent_ ? incumbent_obj_ : kInfinity;
  }

  double elapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Tightest proven lower bound among open nodes (for stats/gap): the
  /// heap's top.
  double bestOpenBound() const {
    return open_.empty() ? kInfinity : open_.top().bound;
  }

  void fillStats(Solution& result) {
    stats_.wall_seconds = elapsedSeconds();
    stats_.best_bound = open_.empty()
                            ? (has_incumbent_ ? incumbent_obj_ : kInfinity)
                            : bestOpenBound();
    result.stats = stats_;
  }

  bool gapClosed() const {
    if (!has_incumbent_) return false;
    if (open_.empty()) return true;
    const double bound = bestOpenBound();
    const double gap = (incumbent_obj_ - bound) /
                       std::max(1.0, std::abs(incumbent_obj_));
    return gap <= params_.mip_gap;
  }

  // ---- incremental bound tracking ----------------------------------------
  //
  // The current bound vectors mirror one root-to-node path of the tree.
  // Moving to another node undoes bound changes up to the lowest common
  // ancestor and applies the target's chain from there — O(path distance)
  // instead of the two full O(n) vector copies a per-node rebuild costs.

  struct Frame {
    int node = -1;
    std::size_t undo_begin = 0;  ///< first undo_ entry owned by this frame
  };
  struct Undo {
    VarId var = -1;
    double lower = 0.0;
    double upper = 0.0;
  };

  void setCurrentBounds(VarId var, double lower, double upper) {
    undo_.push_back(Undo{var, lower_[static_cast<std::size_t>(var)],
                         upper_[static_cast<std::size_t>(var)]});
    lower_[static_cast<std::size_t>(var)] = lower;
    upper_[static_cast<std::size_t>(var)] = upper;
  }

  void pushFrame(int node_id) {
    path_.push_back(Frame{node_id, undo_.size()});
    on_path_[static_cast<std::size_t>(node_id)] = 1;
    const Node& n = nodes_[static_cast<std::size_t>(node_id)];
    if (n.var >= 0) setCurrentBounds(n.var, n.lower, n.upper);
    for (int k = 0; k < n.extra_count; ++k) {
      const LpBackend::Fix& fix =
          rc_fixes_[static_cast<std::size_t>(n.extra_begin + k)];
      setCurrentBounds(fix.var, fix.value, fix.value);
    }
  }

  void popFrame() {
    const Frame frame = path_.back();
    path_.pop_back();
    on_path_[static_cast<std::size_t>(frame.node)] = 0;
    while (undo_.size() > frame.undo_begin) {
      const Undo& u = undo_.back();
      lower_[static_cast<std::size_t>(u.var)] = u.lower;
      upper_[static_cast<std::size_t>(u.var)] = u.upper;
      undo_.pop_back();
    }
  }

  void moveTo(int node) {
    chain_.clear();
    int n = node;
    while (!on_path_[static_cast<std::size_t>(n)]) {
      chain_.push_back(n);
      n = nodes_[static_cast<std::size_t>(n)].parent;
    }
    while (path_.back().node != n) popFrame();
    for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) pushFrame(*it);
  }

  /// Record the fixes in fix_buffer_ on `node_id` (the current path top) and
  /// apply them to the live bounds so both children see them.
  void applyRcFixes(int node_id) {
    Node& n = nodes_[static_cast<std::size_t>(node_id)];
    n.extra_begin = static_cast<int>(rc_fixes_.size());
    n.extra_count = static_cast<int>(fix_buffer_.size());
    for (const LpBackend::Fix& fix : fix_buffer_) {
      rc_fixes_.push_back(fix);
      setCurrentBounds(fix.var, fix.value, fix.value);
    }
    stats_.rc_fixed += static_cast<std::int64_t>(fix_buffer_.size());
  }

  /// Branch-variable selection per params_.branch_rule. Returns -1 when the
  /// LP point is integral within tolerance. Pseudocost mode falls back to
  /// most-fractional until at least one degradation has been observed.
  VarId pickBranchVariable(const std::vector<double>& values) const {
    if (params_.branch_rule == BranchRule::Pseudocost &&
        (pc_observations_[0] > 0 || pc_observations_[1] > 0))
      return pickPseudocost(values);
    return pickMostFractional(values);
  }

  /// Most-fractional branching: the integer variable whose LP value is
  /// farthest from the nearest integer (the pre-PR-6 rule).
  VarId pickMostFractional(const std::vector<double>& values) const {
    VarId best = -1;
    double best_frac = params_.integrality_tol;
    for (VarId v : integer_vars_) {
      const double value = values[static_cast<std::size_t>(v)];
      const double frac = std::abs(value - std::round(value));
      if (frac > best_frac) {
        best_frac = frac;
        best = v;
      }
    }
    return best;
  }

  /// Product-rule pseudocost branching: score each fractional variable by
  /// the product of its estimated down and up LP-bound degradations, using
  /// the direction's global average for variables without history. Strictly
  /// greater score wins and integer_vars_ is scanned in ascending id order,
  /// so ties resolve to the smallest variable id — deterministic.
  VarId pickPseudocost(const std::vector<double>& values) const {
    const double avg_down = pc_observations_[0] > 0
                                ? pc_total_[0] / static_cast<double>(
                                                     pc_observations_[0])
                                : 1.0;
    const double avg_up = pc_observations_[1] > 0
                              ? pc_total_[1] / static_cast<double>(
                                                   pc_observations_[1])
                              : 1.0;
    VarId best = -1;
    double best_score = -1.0;
    for (VarId v : integer_vars_) {
      const std::size_t vi = static_cast<std::size_t>(v);
      const double value = values[vi];
      if (std::abs(value - std::round(value)) <= params_.integrality_tol)
        continue;
      const double f_down = value - std::floor(value);
      const double f_up = 1.0 - f_down;
      const double pcd =
          pc_count_[0][vi] > 0
              ? pc_sum_[0][vi] / static_cast<double>(pc_count_[0][vi])
              : avg_down;
      const double pcu =
          pc_count_[1][vi] > 0
              ? pc_sum_[1][vi] / static_cast<double>(pc_count_[1][vi])
              : avg_up;
      const double score =
          std::max(1e-6, f_down * pcd) * std::max(1e-6, f_up * pcu);
      if (score > best_score) {
        best_score = score;
        best = v;
      }
    }
    return best;
  }

  void acceptIncumbent(const LpResult& lp) {
    std::vector<double> values = lp.values;
    for (VarId v : integer_vars_) {
      auto& value = values[static_cast<std::size_t>(v)];
      value = std::round(value);
    }
    const double objective = model_.objective().evaluate(values);
    if (has_incumbent_ && objective >= incumbent_obj_ - absTol()) return;
    if (!model_.isFeasible(values, 1e-5)) {
      // Snapping pushed the point out of the feasible region (can happen on
      // near-degenerate LPs); keep searching instead of accepting it.
      PDW_LOG(Debug, "ilp") << "rejecting numerically infeasible incumbent";
      return;
    }
    incumbent_ = std::move(values);
    incumbent_obj_ = objective;
    has_incumbent_ = true;
    if (flight_)
      flight_->record(obs::FlightEventKind::Incumbent, -1, incumbent_obj_,
                      static_cast<double>(stats_.nodes_explored));
    if (params_.log_progress) {
      PDW_LOG(Info, "ilp") << "incumbent " << incumbent_obj_ << " after "
                           << stats_.nodes_explored << " nodes";
    }
  }

  void pushChild(int parent, VarId var, double lower, double upper,
                 double bound, double branch_dist, bool up_branch) {
    if (lower > upper + 1e-9) return;  // empty branch
    Node node;
    node.parent = parent;
    node.var = var;
    node.lower = lower;
    node.upper = upper;
    node.bound = bound;
    node.depth = nodes_[static_cast<std::size_t>(parent)].depth + 1;
    node.branch_dist = branch_dist;
    node.up_branch = up_branch;
    nodes_.push_back(node);
    on_path_.push_back(0);
    open_.push(QueueEntry{bound, static_cast<int>(nodes_.size()) - 1});
  }

  const Model& model_;
  const SolveParams& params_;
  obs::FlightRecorder* flight_;  ///< caller-owned; null when disabled
  std::unique_ptr<LpBackend> engine_;  ///< selected via params.engine
  Clock::time_point start_;

  std::vector<VarId> integer_vars_;
  std::vector<Node> nodes_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      open_;  // best-bound first

  std::vector<double> lower_, upper_;  // bounds of the current path
  std::vector<Frame> path_;
  std::vector<Undo> undo_;
  std::vector<char> on_path_;
  std::vector<int> chain_;
  std::vector<LpBackend::Fix> rc_fixes_;
  std::vector<LpBackend::Fix> fix_buffer_;

  std::vector<double> incumbent_;
  double incumbent_obj_ = kInfinity;
  bool has_incumbent_ = false;

  /// Per-variable pseudocosts, indexed [direction][var] with direction
  /// 0 = down, 1 = up: running sum of per-unit LP-bound degradations and
  /// the number of observations. Empty unless BranchRule::Pseudocost.
  std::vector<double> pc_sum_[2];
  std::vector<std::int64_t> pc_count_[2];
  std::int64_t pc_observations_[2] = {0, 0};
  double pc_total_[2] = {0.0, 0.0};

  SolveStats stats_;
};

}  // namespace

Solution solveMip(const Model& model, const SolveParams& params) {
  PDW_TRACE_SPAN("ilp", "solve_mip");
  const auto start = Clock::now();
  const auto wallSeconds = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  if (model.numIntegerVars() == 0) {
    LpResult lp = solveLp(model, params);
    Solution result;
    result.stats.simplex_iterations = lp.iterations;
    switch (lp.status) {
      case LpStatus::Optimal:
        result.status = SolveStatus::Optimal;
        result.objective = lp.objective;
        result.values = std::move(lp.values);
        result.stats.best_bound = result.objective;
        break;
      case LpStatus::Infeasible:
        result.status = SolveStatus::Infeasible;
        break;
      case LpStatus::Unbounded:
        result.status = SolveStatus::Unbounded;
        break;
      case LpStatus::IterLimit:
        result.status = SolveStatus::IterLimit;
        break;
    }
    recordMipSolve(result, wallSeconds());
    return result;
  }

  // The flight recorder is constructed up front so the root separation
  // loop's cut events and the search land in one dump block (obs_check
  // reconciles cut_added against ilp.cuts.added).
  std::unique_ptr<obs::FlightRecorder> flight;
  if (params.flight.enabled)
    flight = std::make_unique<obs::FlightRecorder>(params.flight, "canonical");

  // Root cutting planes, separated once on an augmented copy of the model
  // before the search starts: the search inherits the cut rows as ordinary
  // constraints, so the node-LP warm-start contract is untouched.
  Model augmented;
  const Model* search_model = &model;
  CutStats cut_stats;
  if (params.cuts.enabled) {
    std::vector<double> check_point;
    if (params.warm_start.size() ==
        static_cast<std::size_t>(model.numVars())) {
      std::vector<double> warm = params.warm_start;
      for (VarId v = 0; v < model.numVars(); ++v)
        if (model.var(v).type != VarType::Continuous)
          warm[static_cast<std::size_t>(v)] =
              std::round(warm[static_cast<std::size_t>(v)]);
      if (model.isFeasible(warm, 1e-5)) check_point = std::move(warm);
    }
    PDW_TRACE_SPAN("ilp", "root_cuts");
    augmented = model;
    cut_stats = separateRootCuts(augmented, params, check_point,
                                 flight.get());
    search_model = &augmented;
  }

  Solution result;
  {
    PDW_TRACE_SPAN("ilp", "canonical_lane");
    BranchAndBound solver(*search_model, params, flight.get());
    result = solver.run();
  }
  result.stats.cuts_added = cut_stats.added;
  result.stats.cuts_gomory = cut_stats.gomory;
  result.stats.cuts_cover = cut_stats.cover;
  result.stats.cuts_gomory_active = cut_stats.gomory_active;
  result.stats.cuts_cover_active = cut_stats.cover_active;
  result.stats.cuts_evicted = cut_stats.evicted;
  result.stats.cut_rounds = cut_stats.rounds;
  recordMipSolve(result, wallSeconds());
  return result;
}

}  // namespace pdw::ilp
