// Sparse LU factorization of a simplex basis, with product-form updates.
//
// The revised simplex (revised_simplex.h) keeps B = LU factorized instead of
// carrying an explicit tableau. Design:
//
//  * Markowitz pivoting: at each elimination step the pivot minimizes
//    (row_count-1)*(col_count-1) among entries passing a relative-magnitude
//    threshold, trading a little numerical greed for fill-in control — the
//    classic sparse-LU compromise. Ties break toward larger magnitude, then
//    smaller row, then smaller position, so factorization is deterministic.
//    The minimum is kept incrementally instead of rescanning the active
//    submatrix every step (O(m·nnz) per factorization): each active row
//    carries one key for its own best entry in a binary heap, and keys are
//    invalidated lazily by a per-row version. After a step, only the rows
//    it rebuilt are rescored, plus the rows holding a position whose column
//    count moved when that entry may now be the row's best. A step thus
//    costs the column lists it walks and the rows it rescores, plus
//    O(log m) per new key; stale keys are purged once they outnumber the
//    active rows. The selection rule is unchanged and exact, so the pivot
//    sequence — and with it every L/U entry and every solve result — is
//    bitwise the same as a full scan's (tests/test_ilp_basis_lu.cpp keeps
//    the full scan as its oracle).
//  * Dense fallback: a basis whose nonzero density exceeds a threshold (or
//    whose sparse elimination fills in beyond it) is factorized with plain
//    dense partial pivoting instead — Markowitz bookkeeping on a dense
//    matrix only adds overhead. `lp_dense_*`-class models land here.
//  * Product-form updates: replacing basis position r with a column whose
//    FTRAN image is alpha appends an eta transform (B' = B·E with E = I
//    except column r = alpha); FTRAN applies the LU solve then the etas in
//    order, BTRAN applies eta transposes in reverse then the LU transpose
//    solve. The engine refactorizes periodically (update count / eta fill /
//    pivot quality), which also re-anchors numerical drift.
//
// Row/position vocabulary: a basis column lives at a *position* (0..m-1 in
// the basis heading); FTRAN maps row-indexed right-hand sides to
// position-indexed solutions of B x = b, BTRAN maps position-indexed costs
// to row-indexed duals of Bᵀ y = c.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace pdw::ilp {

class BasisLu {
 public:
  BasisLu();
  ~BasisLu();
  BasisLu(BasisLu&&) noexcept;
  BasisLu& operator=(BasisLu&&) noexcept;

  /// Entries of one sparse basis column: (constraint row, coefficient).
  using SparseColumn = std::vector<std::pair<int, double>>;

  /// Factorize the m x m basis given by `cols` (one column per basis
  /// position). Returns false when the basis is numerically singular; the
  /// previous factorization (if any) is invalidated either way.
  bool factor(int m, const std::vector<SparseColumn>& cols);

  /// Solve B x = b in place: `x` holds the row-indexed right-hand side on
  /// entry and the position-indexed solution on return.
  void ftran(std::vector<double>& x) const;

  /// Solve Bᵀ y = c in place: `x` holds the position-indexed costs on entry
  /// and the row-indexed duals on return.
  void btran(std::vector<double>& x) const;

  /// Product-form update after replacing basis position `pos` with a column
  /// whose FTRAN image is `alpha` (position-indexed, i.e. ftran() output of
  /// the entering column). Returns false — leaving the factorization
  /// untouched — when |alpha[pos]| is too small to pivot on; the caller
  /// must refactorize.
  bool update(int pos, const std::vector<double>& alpha);

  bool valid() const { return valid_; }
  int size() const { return m_; }
  int updates() const { return static_cast<int>(eta_start_.size()) - 1; }
  /// Total nonzeros across the appended eta transforms (refactor trigger).
  std::int64_t etaNonzeros() const { return eta_nnz_; }
  /// Nonzeros of the LU factors proper (fill-in diagnostics).
  std::int64_t factorNonzeros() const { return factor_nnz_; }
  bool usedDenseMode() const { return dense_mode_; }
  /// Sparse elimination order: step k pivoted on row pivotRows()[k] at
  /// position pivotPositions()[k]. After a fill-in abort (usedDenseMode())
  /// or a singular rejection these hold the steps taken before it stopped.
  const std::vector<int>& pivotRows() const { return prow_; }
  const std::vector<int>& pivotPositions() const { return pcol_; }

 private:
  static constexpr double kAbsPivotTol = 1e-11;
  static constexpr double kRelPivotTol = 0.05;  ///< Markowitz threshold
  static constexpr double kDropTol = 1e-13;
  static constexpr double kUpdatePivotTol = 1e-9;

  /// Outcome of the sparse elimination: FillAbort means the active
  /// submatrix filled in past the dense threshold and factor() retries with
  /// dense partial pivoting; Singular means no admissible pivot was left.
  enum class SparseResult { Ok, Singular, FillAbort };

  /// factorSparse's working rows and pivot-search heap (basis_lu.cpp),
  /// created by the first sparse factorization and reused by every later
  /// one, so refactorizing allocates almost nothing.
  struct SparseWork;

  SparseResult factorSparse(const std::vector<SparseColumn>& cols);
  bool factorDense(const std::vector<SparseColumn>& cols);
  void clearFactors();
  void applyEtasFtran(std::vector<double>& x) const;
  void applyEtasBtran(std::vector<double>& x) const;

  int m_ = 0;
  bool valid_ = false;
  bool dense_mode_ = false;

  // ---- sparse factors ----------------------------------------------------
  // Step k eliminated row prow_[k] / position pcol_[k]. l_*: multipliers
  // (original row, value) that eliminated column pcol_[k] from later-pivotal
  // rows. u_*: the pivot row's surviving entries (position, value) over
  // later-eliminated positions; diag_[k] is its pivot value.
  std::vector<int> prow_, pcol_;
  std::vector<double> diag_;
  std::vector<int> l_start_;
  std::vector<std::pair<int, double>> l_entries_;
  std::vector<int> u_start_;
  std::vector<std::pair<int, double>> u_entries_;

  // ---- dense factors (in-place LU with row permutation) ------------------
  std::vector<double> dense_lu_;  // m x m row-major; L below diag, U above
  std::vector<int> dense_perm_;   // dense_perm_[k] = original row of step k

  // ---- product-form etas -------------------------------------------------
  // Eta e: pivot position eta_pos_[e] with pivot value eta_pivot_[e] and
  // off-pivot entries eta_entries_[eta_start_[e] .. eta_start_[e+1]).
  std::vector<int> eta_pos_;
  std::vector<double> eta_pivot_;
  std::vector<int> eta_start_{0};
  std::vector<std::pair<int, double>> eta_entries_;
  std::int64_t eta_nnz_ = 0;
  std::int64_t factor_nnz_ = 0;

  // scratch (mutable so const solves avoid per-call allocation)
  mutable std::vector<double> work_;
  mutable std::vector<double> work2_;
  std::unique_ptr<SparseWork> sparse_work_;
};

}  // namespace pdw::ilp
