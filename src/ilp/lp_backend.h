// Engine-agnostic LP backend seam.
//
// Branch-and-bound, the lazy-cut callback and the standalone `ilp::solve`
// LP path all talk to this interface instead of a concrete simplex
// implementation, so the MILP layer does not know which LP engine is
// underneath (the solver-abstraction shape of TCPSPSuite's
// contrib/ilpabstraction, DESIGN.md §12). Two backends ship in-tree:
//
//  * "revised" (default) — sparse revised simplex over a factorized basis
//    (revised_simplex.h): CSC storage, Markowitz LU with product-form
//    updates and periodic refactorization, native bounded-variable columns,
//    devex pricing.
//  * "dense" — the original dense-tableau SimplexEngine (dual_simplex.h),
//    kept as the cross-check oracle for the differential test suite.
//
// Both honor the same warm-start contract (DESIGN.md §11): `solve` with
// `allow_warm` re-optimizes with the dual simplex from the engine's current
// basis after the caller's bound deltas, falls back to a cold solve
// deterministically, and exposes reduced-cost fixing at the node optimum.
// Backends are stateful and single-threaded by design — one instance per
// branch-and-bound lane.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ilp/types.h"

namespace pdw::obs {
class FlightRecorder;
}

namespace pdw::ilp {

class Model;

class LpBackend {
 public:
  /// A reduced-cost bound fixing: `var` provably sits at `value` in every
  /// improving solution of the current subtree.
  struct Fix {
    VarId var = -1;
    double value = 0.0;
  };

  /// Where a canonical column sits in the basis the backend last solved
  /// with. The canonical column space is shared by both engines: columns
  /// 0..n-1 are the model variables, column n+r is the slack of constraint
  /// row r defined by `a_r . x + s_r = rhs_r` (so s_r >= 0 for LessEqual,
  /// s_r <= 0 for GreaterEqual, s_r == 0 for Equal rows).
  enum class ColStatus : std::uint8_t { Basic, AtLower, AtUpper, Free };

  /// One row of the optimal simplex tableau in the canonical column space,
  /// extracted by tableauRow(). The equation
  ///
  ///   x_var + sum_j coeff[j] * col_j = rhs        (j over nonbasic columns)
  ///
  /// holds for every point satisfying the constraint rows, which is what a
  /// Gomory derivation needs. `coeff` entries of basic columns are zeroed;
  /// `lower`/`upper` carry the bounds of every canonical column under the
  /// engine's current load (slack bounds come from the row sense).
  struct TableauRowView {
    std::vector<double> coeff;
    std::vector<ColStatus> status;
    std::vector<double> lower, upper;
    double rhs = 0.0;
  };

  /// A cut row to append to the engine: `terms . x (sense) rhs`. Terms are
  /// sorted by VarId with duplicates merged (LinExpr discipline).
  struct CutRow {
    std::vector<std::pair<VarId, double>> terms;
    Sense sense = Sense::LessEqual;
    double rhs = 0.0;
  };

  virtual ~LpBackend() = default;

  /// Solve the LP with the given bounds. When `allow_warm` and the backend
  /// holds a usable dual-feasible state, re-optimizes with the dual simplex
  /// (setting *used_warm); otherwise runs a cold solve. Either path returns
  /// the same status/objective (the warm path is exact, not approximate).
  /// `dual_pivots` receives the dual pivots of this call.
  virtual LpResult solve(const std::vector<double>& lower,
                         const std::vector<double>& upper, bool allow_warm,
                         bool* used_warm = nullptr,
                         std::int64_t* dual_pivots = nullptr) = 0;

  /// Full cold solve from scratch (also resets the warm state).
  virtual LpResult coldSolve(const std::vector<double>& lower,
                             const std::vector<double>& upper) = 0;

  /// True when the backend holds a dual-feasible basis a warm solve can
  /// start from.
  virtual bool warmReady() const = 0;

  /// Reduced-cost fixings at the current optimum: every nonbasic integer
  /// variable whose reduced cost exceeds `gap` (incumbent objective minus
  /// this LP's objective) by a safety margin. Only valid immediately after
  /// a solve that returned Optimal.
  virtual void collectReducedCostFixes(double gap, double integrality_tol,
                                       std::vector<Fix>* out) const = 0;

  /// Extract the optimal-tableau row of the *basic* model variable `var`
  /// into `out` (see TableauRowView). Only meaningful immediately after a
  /// solve that returned Optimal. Returns false when `var` is nonbasic, the
  /// backend holds no optimal basis, or extraction is not supported — the
  /// Gomory separator just skips the variable then.
  virtual bool tableauRow(VarId var, TableauRowView* out) const {
    (void)var;
    (void)out;
    return false;
  }

  /// Append cut rows to the engine *without* rebuilding its standard form:
  /// each row arrives with its slack basic, so the current basis stays
  /// valid and dual-feasible and the next `solve(..., allow_warm=true)`
  /// re-optimizes with the dual simplex from it (the classic cut-loop warm
  /// start). Returns false when the backend does not support incremental
  /// rows — the separation loop then rebuilds a fresh backend over the
  /// augmented model and cold-solves, which is slower but identical.
  virtual bool addCutRows(const std::vector<CutRow>& rows) {
    (void)rows;
    return false;
  }

  /// Registry name of this backend ("revised", "dense", ...).
  virtual const char* name() const = 0;

  /// Attach a flight recorder (obs/flight.h) owned by the calling lane; the
  /// backend records engine-level events (refactorizations, degenerate-pivot
  /// stalls) into it. nullptr (the default) disables recording. The recorder
  /// must outlive the backend or be detached before destruction.
  virtual void setFlightRecorder(obs::FlightRecorder* recorder) {
    (void)recorder;
  }
};

/// Factory signature: `model` and `params` must outlive the backend.
using LpBackendFactory = std::function<std::unique_ptr<LpBackend>(
    const Model& model, const SolveParams& params)>;

/// Register a backend under `name` (replaces a previous registration of the
/// same name). The built-ins "revised" and "dense" are pre-registered.
void registerLpBackend(const std::string& name, LpBackendFactory factory);

/// Instantiate the backend selected by `name` ("" resolves to
/// defaultLpBackendName()). Throws std::invalid_argument on an unknown name;
/// entry points reject such names up front with isLpBackendName().
std::unique_ptr<LpBackend> makeLpBackend(const std::string& name,
                                         const Model& model,
                                         const SolveParams& params);

/// True when `name` is registered (the empty default name is not).
bool isLpBackendName(const std::string& name);

/// Registered backend names, sorted (for CLI help / diagnostics).
std::vector<std::string> lpBackendNames();

/// Name the empty engine string resolves to ("revised").
const std::string& defaultLpBackendName();

}  // namespace pdw::ilp
