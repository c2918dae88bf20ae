// BasisLu unit tests: factor/solve residuals in both sparse-Markowitz and
// dense-fallback modes, singular-basis rejection, product-form update
// correctness against a fresh factorization, drift across long eta chains
// (the refactorization policy's safety margin), and a differential test of
// the incremental Markowitz pivot search against a full-scan reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "ilp/basis_lu.h"
#include "util/rng.h"

namespace pdw::ilp {
namespace {

using Columns = std::vector<BasisLu::SparseColumn>;

/// Random strictly column-diagonally-dominant basis (hence nonsingular):
/// position p owns row perm[p] with a dominant entry, plus off-diagonal
/// noise whose total magnitude stays below the dominant entry.
Columns randomBasis(util::Rng& rng, int m, double density) {
  std::vector<int> perm(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) perm[static_cast<std::size_t>(i)] = i;
  rng.shuffle(perm);

  Columns cols(static_cast<std::size_t>(m));
  const double off_mag = 1.5 / static_cast<double>(m);
  for (int p = 0; p < m; ++p) {
    BasisLu::SparseColumn& col = cols[static_cast<std::size_t>(p)];
    const int diag_row = perm[static_cast<std::size_t>(p)];
    for (int r = 0; r < m; ++r) {
      if (r == diag_row) {
        col.emplace_back(r, 2.0 + 4.0 * rng.uniform());
      } else if (rng.chance(density)) {
        col.emplace_back(r, off_mag * (2.0 * rng.uniform() - 1.0));
      }
    }
  }
  return cols;
}

std::vector<double> randomVector(util::Rng& rng, int m) {
  std::vector<double> v(static_cast<std::size_t>(m));
  for (double& x : v) x = 2.0 * rng.uniform() - 1.0;
  return v;
}

/// max_r | (B x)_r - rhs_r | with x position-indexed (ftran output).
double ftranResidual(const Columns& cols, const std::vector<double>& x,
                     const std::vector<double>& rhs) {
  std::vector<double> bx(rhs.size(), 0.0);
  for (std::size_t p = 0; p < cols.size(); ++p)
    for (const auto& [row, value] : cols[p])
      bx[static_cast<std::size_t>(row)] += value * x[p];
  double worst = 0.0;
  for (std::size_t r = 0; r < rhs.size(); ++r)
    worst = std::max(worst, std::abs(bx[r] - rhs[r]));
  return worst;
}

/// max_p | (Bᵀ y)_p - c_p | with y row-indexed (btran output).
double btranResidual(const Columns& cols, const std::vector<double>& y,
                     const std::vector<double>& c) {
  double worst = 0.0;
  for (std::size_t p = 0; p < cols.size(); ++p) {
    double dot = 0.0;
    for (const auto& [row, value] : cols[p])
      dot += value * y[static_cast<std::size_t>(row)];
    worst = std::max(worst, std::abs(dot - c[p]));
  }
  return worst;
}

void expectSolves(BasisLu& lu, const Columns& cols, util::Rng& rng,
                  double tol) {
  const int m = static_cast<int>(cols.size());
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<double> rhs = randomVector(rng, m);
    std::vector<double> x = rhs;
    lu.ftran(x);
    EXPECT_LT(ftranResidual(cols, x, rhs), tol);

    const std::vector<double> c = randomVector(rng, m);
    std::vector<double> y = c;
    lu.btran(y);
    EXPECT_LT(btranResidual(cols, y, c), tol);
  }
}

TEST(BasisLu, PermutedIdentitySolvesExactly) {
  util::Rng rng(1);
  const int m = 7;
  std::vector<int> perm{3, 0, 6, 1, 5, 2, 4};
  Columns cols(static_cast<std::size_t>(m));
  for (int p = 0; p < m; ++p)
    cols[static_cast<std::size_t>(p)].emplace_back(
        perm[static_cast<std::size_t>(p)], 1.0);

  BasisLu lu;
  ASSERT_TRUE(lu.factor(m, cols));
  EXPECT_TRUE(lu.valid());
  EXPECT_EQ(lu.size(), m);
  expectSolves(lu, cols, rng, 1e-12);
}

TEST(BasisLu, SparseModeRandomBasesSolve) {
  util::Rng rng(42);
  for (int m : {6, 24, 48}) {
    const Columns cols = randomBasis(rng, m, 0.10);
    BasisLu lu;
    ASSERT_TRUE(lu.factor(m, cols)) << "m=" << m;
    if (m >= 32) {
      EXPECT_FALSE(lu.usedDenseMode()) << "m=" << m;
    }
    expectSolves(lu, cols, rng, 1e-8);
  }
}

TEST(BasisLu, DenseModeRandomBasesSolve) {
  util::Rng rng(43);
  const int m = 48;
  const Columns cols = randomBasis(rng, m, 0.7);
  BasisLu lu;
  ASSERT_TRUE(lu.factor(m, cols));
  EXPECT_TRUE(lu.usedDenseMode());
  expectSolves(lu, cols, rng, 1e-8);
}

TEST(BasisLu, SingularBasisRejected) {
  util::Rng rng(7);
  for (int m : {5, 40}) {
    Columns cols = randomBasis(rng, m, 0.2);
    // Duplicate one column over another: rank deficiency.
    cols[1] = cols[0];
    BasisLu lu;
    EXPECT_FALSE(lu.factor(m, cols)) << "duplicate column, m=" << m;
    EXPECT_FALSE(lu.valid());

    cols = randomBasis(rng, m, 0.2);
    cols[2].clear();  // structurally empty column
    EXPECT_FALSE(lu.factor(m, cols)) << "empty column, m=" << m;
    EXPECT_FALSE(lu.valid());
  }
}

TEST(BasisLu, SingularThenRecoverByRefactor) {
  // The engine's recovery path: a failed factor() must leave the object in
  // a state from which a factor() of a good basis succeeds cleanly.
  util::Rng rng(8);
  const int m = 12;
  Columns good = randomBasis(rng, m, 0.25);
  Columns bad = good;
  bad[4] = bad[9];

  BasisLu lu;
  EXPECT_FALSE(lu.factor(m, bad));
  ASSERT_TRUE(lu.factor(m, good));
  expectSolves(lu, good, rng, 1e-8);
}

TEST(BasisLu, ProductFormUpdateMatchesFreshFactor) {
  util::Rng rng(1234);
  const int m = 20;
  Columns cols = randomBasis(rng, m, 0.3);
  BasisLu lu;
  ASSERT_TRUE(lu.factor(m, cols));

  int applied = 0;
  for (int step = 0; step < 12; ++step) {
    // Entering column: another dominant random column.
    const int pos = rng.intIn(0, m - 1);
    const Columns fresh_col = randomBasis(rng, m, 0.3);
    const BasisLu::SparseColumn& entering = fresh_col[static_cast<std::size_t>(pos)];

    std::vector<double> alpha(static_cast<std::size_t>(m), 0.0);
    for (const auto& [row, value] : entering)
      alpha[static_cast<std::size_t>(row)] = value;
    lu.ftran(alpha);  // alpha := B⁻¹ a, position-indexed
    if (std::abs(alpha[static_cast<std::size_t>(pos)]) < 1e-6) continue;

    ASSERT_TRUE(lu.update(pos, alpha));
    cols[static_cast<std::size_t>(pos)] = entering;
    ++applied;

    // The eta-updated solves must match a from-scratch factorization of
    // the modified basis.
    BasisLu oracle;
    ASSERT_TRUE(oracle.factor(m, cols));
    const std::vector<double> rhs = randomVector(rng, m);
    std::vector<double> x_eta = rhs, x_oracle = rhs;
    lu.ftran(x_eta);
    oracle.ftran(x_oracle);
    for (int p = 0; p < m; ++p)
      EXPECT_NEAR(x_eta[static_cast<std::size_t>(p)],
                  x_oracle[static_cast<std::size_t>(p)], 1e-7)
          << "step " << step << " pos " << p;

    const std::vector<double> c = randomVector(rng, m);
    std::vector<double> y_eta = c, y_oracle = c;
    lu.btran(y_eta);
    oracle.btran(y_oracle);
    for (int r = 0; r < m; ++r)
      EXPECT_NEAR(y_eta[static_cast<std::size_t>(r)],
                  y_oracle[static_cast<std::size_t>(r)], 1e-7)
          << "step " << step << " row " << r;
  }
  EXPECT_GE(applied, 6);
  EXPECT_EQ(lu.updates(), applied);
}

TEST(BasisLu, UpdateRefusesTinyPivot) {
  util::Rng rng(5);
  const int m = 8;
  const Columns cols = randomBasis(rng, m, 0.3);
  BasisLu lu;
  ASSERT_TRUE(lu.factor(m, cols));
  std::vector<double> alpha(static_cast<std::size_t>(m), 1.0);
  alpha[3] = 1e-12;  // below kUpdatePivotTol
  EXPECT_FALSE(lu.update(3, alpha));
  EXPECT_EQ(lu.updates(), 0);  // factorization untouched
  expectSolves(lu, cols, rng, 1e-8);
}

TEST(BasisLu, DriftStaysBoundedAcrossLongEtaChain) {
  // 40 consecutive product-form updates — well past the engine's sparse
  // refactorization interval — must keep solve residuals within the drift
  // tolerance the post-warm-solve scan assumes (1e-6).
  util::Rng rng(99);
  const int m = 30;
  Columns cols = randomBasis(rng, m, 0.2);
  BasisLu lu;
  ASSERT_TRUE(lu.factor(m, cols));

  int applied = 0;
  while (applied < 40) {
    const int pos = rng.intIn(0, m - 1);
    const BasisLu::SparseColumn entering =
        randomBasis(rng, m, 0.2)[static_cast<std::size_t>(pos)];
    std::vector<double> alpha(static_cast<std::size_t>(m), 0.0);
    for (const auto& [row, value] : entering)
      alpha[static_cast<std::size_t>(row)] = value;
    lu.ftran(alpha);
    if (std::abs(alpha[static_cast<std::size_t>(pos)]) < 1e-6) continue;
    ASSERT_TRUE(lu.update(pos, alpha));
    cols[static_cast<std::size_t>(pos)] = entering;
    ++applied;
  }
  EXPECT_EQ(lu.updates(), 40);

  const std::vector<double> rhs = randomVector(rng, m);
  std::vector<double> x = rhs;
  lu.ftran(x);
  EXPECT_LT(ftranResidual(cols, x, rhs), 1e-6);

  // Refactorizing re-anchors: residual returns to fresh-factor accuracy.
  ASSERT_TRUE(lu.factor(m, cols));
  EXPECT_EQ(lu.updates(), 0);
  std::vector<double> x2 = rhs;
  lu.ftran(x2);
  EXPECT_LT(ftranResidual(cols, x2, rhs), 1e-9);
}

// ---- differential test: incremental pivot search vs. full scan ------------
//
// The reference below is the sparse elimination with the original pivot
// search: every step rescans every entry of every active row. BasisLu must
// choose the same pivot at every step, so its factors, and therefore its
// solves, are bitwise identical to the reference's.

enum class RefResult { Ok, Singular, FillAbort };

struct RefLu {
  std::vector<int> prow, pcol;
  std::vector<double> diag;
  std::vector<int> l_start, u_start;
  std::vector<std::pair<int, double>> l_entries, u_entries;
};

RefResult refFactorSparse(int m, const Columns& cols, RefLu* f) {
  constexpr double kAbsPivotTol = 1e-11;
  constexpr double kRelPivotTol = 0.05;
  constexpr double kDropTol = 1e-13;
  constexpr double kFillAbortDensity = 0.30;
  std::vector<std::vector<std::pair<int, double>>> rows(m);
  std::vector<int> col_count(m, 0);
  std::size_t nnz = 0;
  for (int pos = 0; pos < m; ++pos) {
    for (const auto& [row, val] : cols[pos]) {
      if (val == 0.0) continue;
      rows[row].emplace_back(pos, val);
      ++col_count[pos];
      ++nnz;
    }
  }
  std::vector<std::vector<int>> col_rows(m);
  for (int i = 0; i < m; ++i)
    for (const auto& [pos, val] : rows[i]) col_rows[pos].push_back(i);
  std::vector<char> row_active(m, 1);
  std::vector<double> acc(m, 0.0);
  std::vector<int> acc_stamp(m, -1);
  int stamp = 0;
  const std::size_t fill_cap = static_cast<std::size_t>(
      std::max(4096.0, kFillAbortDensity * static_cast<double>(m) * m));

  for (int k = 0; k < m; ++k) {
    int piv_row = -1, piv_pos = -1;
    double piv_val = 0.0;
    long best_cost = -1;
    double best_mag = 0.0;
    for (int i = 0; i < m; ++i) {
      if (!row_active[i]) continue;
      const auto& row = rows[i];
      if (row.empty()) continue;
      double row_max = 0.0;
      for (const auto& [pos, val] : row) row_max = std::max(row_max, std::abs(val));
      if (row_max < kAbsPivotTol) continue;
      const double mag_floor = std::max(kAbsPivotTol, kRelPivotTol * row_max);
      const long rc = static_cast<long>(row.size()) - 1;
      for (const auto& [pos, val] : row) {
        const double mag = std::abs(val);
        if (mag < mag_floor) continue;
        const long cost = rc * (static_cast<long>(col_count[pos]) - 1);
        const bool better =
            best_cost < 0 || cost < best_cost ||
            (cost == best_cost &&
             (mag > best_mag ||
              (mag == best_mag &&
               (i < piv_row || (i == piv_row && pos < piv_pos)))));
        if (better) {
          best_cost = cost;
          best_mag = mag;
          piv_row = i;
          piv_pos = pos;
          piv_val = val;
        }
      }
    }
    if (piv_row < 0) return RefResult::Singular;

    f->prow.push_back(piv_row);
    f->pcol.push_back(piv_pos);
    f->diag.push_back(piv_val);
    row_active[piv_row] = 0;
    std::vector<std::pair<int, double>>& prow_entries = rows[piv_row];
    f->u_start.push_back(static_cast<int>(f->u_entries.size()));
    for (const auto& [pos, val] : prow_entries) {
      --col_count[pos];
      if (pos == piv_pos) continue;
      f->u_entries.emplace_back(pos, val);
    }
    f->l_start.push_back(static_cast<int>(f->l_entries.size()));
    std::vector<int>& cand = col_rows[piv_pos];
    for (int i : cand) {
      if (!row_active[i]) continue;
      std::vector<std::pair<int, double>>& row = rows[i];
      double v = 0.0;
      bool found = false;
      for (const auto& [pos, val] : row) {
        if (pos == piv_pos) {
          v = val;
          found = true;
          break;
        }
      }
      if (!found || v == 0.0) continue;
      const double mult = v / piv_val;
      f->l_entries.emplace_back(i, mult);
      ++stamp;
      for (const auto& [pos, val] : row) {
        if (pos == piv_pos) continue;
        acc[pos] = val;
        acc_stamp[pos] = stamp;
      }
      for (const auto& [pos, val] : prow_entries) {
        if (pos == piv_pos) continue;
        if (acc_stamp[pos] == stamp) {
          acc[pos] -= mult * val;
        } else {
          acc[pos] = -mult * val;
          acc_stamp[pos] = stamp;
        }
      }
      for (const auto& [pos, val] : row) --col_count[pos];
      nnz -= row.size();
      std::vector<std::pair<int, double>> next;
      for (const auto& [pos, val] : row) {
        if (pos == piv_pos || acc_stamp[pos] != stamp) continue;
        if (std::abs(acc[pos]) > kDropTol) next.emplace_back(pos, acc[pos]);
        acc_stamp[pos] = -1;
      }
      for (const auto& [pos, val] : prow_entries) {
        if (pos == piv_pos || acc_stamp[pos] != stamp) continue;
        if (std::abs(acc[pos]) > kDropTol) {
          next.emplace_back(pos, acc[pos]);
          col_rows[pos].push_back(i);
        }
        acc_stamp[pos] = -1;
      }
      row.swap(next);
      for (const auto& [pos, val] : row) ++col_count[pos];
      nnz += row.size();
    }
    cand.clear();
    if (nnz > fill_cap && m >= 32) return RefResult::FillAbort;
  }
  f->l_start.push_back(static_cast<int>(f->l_entries.size()));
  f->u_start.push_back(static_cast<int>(f->u_entries.size()));
  return RefResult::Ok;
}

void refFtran(const RefLu& f, std::vector<double>& x) {
  const int m = static_cast<int>(f.prow.size());
  for (int k = 0; k < m; ++k) {
    const double xk = x[f.prow[k]];
    if (xk != 0.0) {
      for (int e = f.l_start[k]; e < f.l_start[k + 1]; ++e)
        x[f.l_entries[e].first] -= f.l_entries[e].second * xk;
    }
  }
  std::vector<double> sol(x.size(), 0.0);
  for (int k = m - 1; k >= 0; --k) {
    double v = x[f.prow[k]];
    for (int e = f.u_start[k]; e < f.u_start[k + 1]; ++e)
      v -= f.u_entries[e].second * sol[f.u_entries[e].first];
    sol[f.pcol[k]] = v / f.diag[k];
  }
  x.swap(sol);
}

void refBtran(const RefLu& f, std::vector<double>& x) {
  const int m = static_cast<int>(f.prow.size());
  std::vector<double> accum(x.size(), 0.0), z(x.size(), 0.0);
  for (int k = 0; k < m; ++k) {
    const double zk = (x[f.pcol[k]] - accum[f.pcol[k]]) / f.diag[k];
    z[k] = zk;
    if (zk != 0.0) {
      for (int e = f.u_start[k]; e < f.u_start[k + 1]; ++e)
        accum[f.u_entries[e].first] += f.u_entries[e].second * zk;
    }
  }
  std::vector<double> w(x.size(), 0.0);
  for (int k = 0; k < m; ++k) w[f.prow[k]] = z[k];
  for (int k = m - 1; k >= 0; --k) {
    double v = w[f.prow[k]];
    for (int e = f.l_start[k]; e < f.l_start[k + 1]; ++e)
      v -= f.l_entries[e].second * w[f.l_entries[e].first];
    w[f.prow[k]] = v;
  }
  x.swap(w);
}

double signedUnit(util::Rng& rng) { return rng.chance(0.5) ? 1.0 : -1.0; }

/// LP-basis-shaped and tie-heavy: about 40% of the positions are unit
/// slack columns, one holds a dense big-M column (±1000), and every other
/// coefficient is ±1. A permuted ±1 diagonal keeps most draws nonsingular; the
/// off-diagonal entries cancel exactly during elimination, which leaves
/// stale and refilled candidates behind.
Columns tieHeavyBasis(util::Rng& rng, int m) {
  std::vector<int> perm(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) perm[static_cast<std::size_t>(i)] = i;
  rng.shuffle(perm);
  Columns cols(static_cast<std::size_t>(m));
  const int big_m_pos = rng.intIn(0, m - 1);
  for (int p = 0; p < m; ++p) {
    BasisLu::SparseColumn& col = cols[static_cast<std::size_t>(p)];
    const int own = perm[static_cast<std::size_t>(p)];
    if (p == big_m_pos) {
      for (int r = 0; r < m; ++r)
        if (r == own || rng.chance(0.5))
          col.emplace_back(r, 1000.0 * signedUnit(rng));
      continue;
    }
    col.emplace_back(own, p % 3 == 0 ? 1.0 : signedUnit(rng));
    if (rng.chance(0.4)) continue;  // unit slack column
    const int extra = rng.intIn(1, 3);
    for (int t = 0; t < extra; ++t) {
      const int r = rng.intIn(0, m - 1);
      bool dup = false;
      for (const auto& [row, v] : col) dup = dup || row == r;
      if (!dup) col.emplace_back(r, signedUnit(rng));
    }
  }
  return cols;
}

/// Magnitudes spread over six decades (so the relative threshold rejects
/// entries), a few entries below the drop tolerance, and a sparse core that
/// fills in. With m >= 117 the fill cap can trip, aborting to dense mode.
Columns spreadBasis(util::Rng& rng, int m, double density) {
  Columns cols = randomBasis(rng, m, 0.0);
  for (int p = 0; p < m; ++p) {
    BasisLu::SparseColumn& col = cols[static_cast<std::size_t>(p)];
    const int own = col.front().first;
    for (int r = 0; r < m; ++r) {
      if (r == own || !rng.chance(density)) continue;
      const double mag = rng.chance(0.03)
                             ? 1e-14
                             : std::pow(10.0, 6.0 * rng.uniform() - 3.0);
      col.emplace_back(r, mag * signedUnit(rng));
    }
  }
  return cols;
}

/// Three exactly rank-deficient shapes: a repeated column, an empty
/// column, and a row no column touches.
Columns singularBasis(util::Rng& rng, int m, int kind) {
  Columns cols =
      rng.chance(0.5) ? tieHeavyBasis(rng, m) : spreadBasis(rng, m, 0.08);
  const std::size_t a = static_cast<std::size_t>(rng.intIn(0, m - 1));
  std::size_t b = static_cast<std::size_t>(rng.intIn(0, m - 2));
  if (b >= a) ++b;
  if (kind == 0) {
    cols[b] = cols[a];
  } else if (kind == 1) {
    cols[a].clear();
  } else {
    const int dead_row = static_cast<int>(a);
    for (BasisLu::SparseColumn& col : cols)
      std::erase_if(col, [&](const auto& e) { return e.first == dead_row; });
  }
  return cols;
}

void expectBitwiseEqual(const std::vector<double>& got,
                        const std::vector<double>& want, const char* what,
                        int basis) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " differs at " << i << " on basis " << basis << ": "
        << got[i] << " vs " << want[i];
}

TEST(BasisLu, PivotOrderMatchesReferenceScan) {
  util::Rng rng(20261020);
  int n_ok = 0, n_fill_abort = 0, n_singular = 0;
  BasisLu lu;  // reused across bases, as the engine reuses its factorizer
  for (int basis = 0; basis < 200; ++basis) {
    Columns cols;
    if (basis < 80) {
      cols = tieHeavyBasis(rng, rng.intIn(4, 90));
    } else if (basis < 130) {
      cols = spreadBasis(rng, rng.intIn(4, 80), 0.06);
    } else if (basis < 160) {
      cols = spreadBasis(rng, rng.intIn(120, 150), 0.05 + 0.05 * rng.uniform());
    } else {
      cols = singularBasis(rng, rng.intIn(5, 70), basis % 3);
    }
    const int m = static_cast<int>(cols.size());
    std::size_t nnz = 0;
    for (const auto& col : cols) nnz += col.size();
    // Bases dense enough to skip the sparse path say nothing about it.
    const double density =
        static_cast<double>(nnz) / (static_cast<double>(m) * m);
    if (m >= 32 && density > 0.18) continue;

    RefLu ref;
    const RefResult want = refFactorSparse(m, cols, &ref);
    const bool ok = lu.factor(m, cols);
    EXPECT_EQ(lu.pivotRows(), ref.prow) << "basis " << basis;
    EXPECT_EQ(lu.pivotPositions(), ref.pcol) << "basis " << basis;
    if (want == RefResult::FillAbort) {
      ++n_fill_abort;
      EXPECT_TRUE(lu.usedDenseMode()) << "basis " << basis;
      continue;
    }
    EXPECT_FALSE(lu.usedDenseMode()) << "basis " << basis;
    if (want == RefResult::Singular) {
      ++n_singular;
      EXPECT_FALSE(ok) << "basis " << basis;
      continue;
    }
    ++n_ok;
    ASSERT_TRUE(ok) << "basis " << basis;
    for (int trial = 0; trial < 2; ++trial) {
      std::vector<double> x = randomVector(rng, m), x_ref = x;
      lu.ftran(x);
      refFtran(ref, x_ref);
      expectBitwiseEqual(x, x_ref, "ftran", basis);
      std::vector<double> y = randomVector(rng, m), y_ref = y;
      lu.btran(y);
      refBtran(ref, y_ref);
      expectBitwiseEqual(y, y_ref, "btran", basis);
    }
  }
  // Every regime must actually be exercised.
  EXPECT_GE(n_ok, 100);
  EXPECT_GE(n_fill_abort, 5);
  EXPECT_GE(n_singular, 30);
}

}  // namespace
}  // namespace pdw::ilp
