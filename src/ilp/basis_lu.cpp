#include "ilp/basis_lu.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pdw::ilp {

namespace {

// Density above which Markowitz bookkeeping loses to a plain dense LU.
constexpr double kDenseModeDensity = 0.18;
// Fill-in abort: sparse elimination that crosses this active-density mark
// restarts in dense mode instead of thrashing the sparse row lists.
constexpr double kFillAbortDensity = 0.30;

}  // namespace

void BasisLu::clearFactors() {
  prow_.clear();
  pcol_.clear();
  diag_.clear();
  l_start_.clear();
  l_entries_.clear();
  u_start_.clear();
  u_entries_.clear();
  dense_lu_.clear();
  dense_perm_.clear();
  eta_pos_.clear();
  eta_pivot_.clear();
  eta_start_.assign(1, 0);
  eta_entries_.clear();
  eta_nnz_ = 0;
  factor_nnz_ = 0;
  dense_mode_ = false;
  valid_ = false;
}

bool BasisLu::factor(int m, const std::vector<SparseColumn>& cols) {
  static obs::Histogram& factor_seconds =
      obs::Registry::instance().histogram(obs::names::kLuFactorSeconds);
  const auto t0 = std::chrono::steady_clock::now();
  assert(static_cast<int>(cols.size()) == m);
  clearFactors();
  m_ = m;
  bool ok = true;
  if (m > 0) {
    std::size_t nnz = 0;
    for (const SparseColumn& col : cols) nnz += col.size();
    const double density =
        static_cast<double>(nnz) / (static_cast<double>(m) * m);
    if (m >= 32 && density > kDenseModeDensity) {
      ok = factorDense(cols);
    } else {
      switch (factorSparse(cols)) {
        case SparseResult::Ok: ok = true; break;
        case SparseResult::Singular: ok = false; break;
        case SparseResult::FillAbort: ok = factorDense(cols); break;
      }
    }
  }
  valid_ = ok;
  factor_seconds.observe(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
  return ok;
}

struct BasisLu::SparseWork {
  /// Heap key of row `row`'s best admissible entry, live while the row is
  /// active and its score is still `version`. No two live keys share a row,
  /// so (cost, -mag, row) orders them exactly as the full scan would.
  struct Key {
    long cost;
    double mag;
    int row, version;
  };

  // rows[i]: active row i as (position, value) entries; their order fixes
  // U's summation order. col_rows[p]: rows that held position p, in
  // first-insertion order, which fixes L's entry order; pivoted rows and
  // repeats are pruned lazily. Only the first m of each are in use.
  std::vector<std::vector<std::pair<int, double>>> rows;
  std::vector<std::vector<int>> col_rows;
  std::vector<std::pair<int, double>> next;
  std::vector<int> col_count;
  std::vector<char> row_active;
  std::vector<double> acc;
  std::vector<int> acc_stamp;

  // Pivot search. heap: best key in front, at most one live key per row.
  // row_version[i]: bumped whenever row i is rescored. row_best[i]: index
  // in rows[i] of the entry its live key scores, -1 when no entry passes
  // the row's pivot magnitude threshold row_floor[i] (+inf when none may
  // ever pivot).
  // count_before[p]: col_count[p] before the step that last touched p
  // (touch_stamp[p]); `touched` lists the current step's positions.
  std::vector<Key> heap;
  std::vector<int> row_version, row_best;
  std::vector<double> row_floor;
  std::vector<int> touch_stamp, count_before, touched;
  std::vector<int> row_stamp, walk_stamp;

  // `a` ranks after `b`: std heaps keep the greatest in front, so the front
  // is the best key. Best = lowest cost, then larger magnitude, then smaller
  // row.
  static bool ranksAfter(const Key& a, const Key& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    if (a.mag != b.mag) return a.mag < b.mag;
    return a.row > b.row;
  }

  bool live(const Key& key) const {
    return row_active[key.row] && row_version[key.row] == key.version;
  }

  /// Sets the magnitude threshold of a freshly built or rebuilt row.
  void setFloor(int row) {
    double row_max = 0.0;
    for (const auto& [pos, val] : rows[row])
      row_max = std::max(row_max, std::abs(val));
    row_floor[row] = rows[row].empty() || row_max < kAbsPivotTol
                         ? std::numeric_limits<double>::infinity()
                         : std::max(kAbsPivotTol, kRelPivotTol * row_max);
  }

  /// Invalidates the row's key and pushes its current best entry, if any:
  /// the first entry of least (cost, -magnitude, position) in row order.
  void rescore(int row) {
    const int version = ++row_version[row];
    const auto& entries = rows[row];
    const long rc = static_cast<long>(entries.size()) - 1;
    Key best{-1, 0.0, row, version};
    int best_idx = -1;
    for (int idx = 0; idx < static_cast<int>(entries.size()); ++idx) {
      const auto& [pos, val] = entries[idx];
      const double mag = std::abs(val);
      if (mag < row_floor[row]) continue;
      const long cost = rc * (static_cast<long>(col_count[pos]) - 1);
      if (best_idx < 0 || cost < best.cost ||
          (cost == best.cost &&
           (mag > best.mag ||
            (mag == best.mag && pos < entries[best_idx].first)))) {
        best.cost = cost;
        best.mag = mag;
        best_idx = idx;
      }
    }
    row_best[row] = best_idx;
    if (best_idx < 0) return;
    heap.push_back(best);
    std::push_heap(heap.begin(), heap.end(), ranksAfter);
  }

  /// Whether the column count of `pos` moving can change the best entry of
  /// `row` (which holds pos): only if the entry at pos now costs no more
  /// than the best one, which includes pos being the best. Entries of one
  /// row share the row count, so comparing column counts suffices. Should
  /// the best entry's own count have moved too, its position's walk
  /// rescores the row regardless. Thresholds do not depend on counts, so a
  /// row with no admissible entry stays without one.
  bool needsRescore(int row, int pos) const {
    const int best = row_best[row];
    return best >= 0 && col_count[pos] <= col_count[rows[row][best].first];
  }

  /// Pops stale keys off the front; false when no live key is left.
  bool settle() {
    while (!heap.empty() && !live(heap.front())) pop();
    return !heap.empty();
  }

  void pop() {
    std::pop_heap(heap.begin(), heap.end(), ranksAfter);
    heap.pop_back();
  }

  /// Drops every stale key and re-heapifies the live ones.
  void rebuild() {
    heap.erase(std::remove_if(heap.begin(), heap.end(),
                              [&](const Key& key) { return !live(key); }),
               heap.end());
    std::make_heap(heap.begin(), heap.end(), ranksAfter);
  }
};

BasisLu::BasisLu() = default;
BasisLu::~BasisLu() = default;
BasisLu::BasisLu(BasisLu&&) noexcept = default;
BasisLu& BasisLu::operator=(BasisLu&&) noexcept = default;

BasisLu::SparseResult BasisLu::factorSparse(
    const std::vector<SparseColumn>& cols) {
  if (!sparse_work_) sparse_work_ = std::make_unique<SparseWork>();
  SparseWork& work = *sparse_work_;
  const int m = m_;
  auto& rows = work.rows;
  auto& col_rows = work.col_rows;
  auto& col_count = work.col_count;
  auto& row_active = work.row_active;
  auto& acc = work.acc;
  auto& acc_stamp = work.acc_stamp;
  // Row-major working copy: rows[i] = (position, value) entries.
  if (static_cast<int>(rows.size()) < m) {
    rows.resize(m);
    col_rows.resize(m);
  }
  for (int i = 0; i < m; ++i) {
    rows[i].clear();
    col_rows[i].clear();
  }
  col_count.assign(m, 0);
  std::size_t nnz = 0;
  for (int pos = 0; pos < m; ++pos) {
    for (const auto& [row, val] : cols[pos]) {
      assert(row >= 0 && row < m);
      if (val == 0.0) continue;
      rows[row].emplace_back(pos, val);
      ++col_count[pos];
      ++nnz;
    }
  }
  // col_rows: candidate rows per position, appended lazily (may hold stale
  // rows whose entry got cancelled; verified against row contents on use).
  for (int i = 0; i < m; ++i)
    for (const auto& [pos, val] : rows[i]) col_rows[pos].push_back(i);

  row_active.assign(m, 1);
  prow_.reserve(m);
  pcol_.reserve(m);
  diag_.reserve(m);
  l_start_.reserve(m + 1);
  u_start_.reserve(m + 1);

  // Dense accumulator for row combination.
  acc.assign(m, 0.0);
  acc_stamp.assign(m, -1);
  int stamp = 0;

  // Pivot search: every row starts with a live key for its best entry.
  work.heap.clear();
  work.heap.reserve(2 * static_cast<std::size_t>(m) + 65);
  work.row_version.assign(m, 0);
  work.row_best.assign(m, -1);
  work.row_floor.assign(m, 0.0);
  work.touch_stamp.assign(m, -1);
  work.count_before.assign(m, 0);
  work.row_stamp.assign(m, -1);
  work.walk_stamp.assign(m, -1);
  for (int i = 0; i < m; ++i) {
    work.setFloor(i);
    work.rescore(i);
  }
  int walk = 0;
  // Records col_count[pos] before step k first changes it.
  const auto touch = [&](int pos, int k) {
    if (work.touch_stamp[pos] == k) return;
    work.touch_stamp[pos] = k;
    work.count_before[pos] = col_count[pos];
    work.touched.push_back(pos);
  };

  const std::size_t fill_cap = static_cast<std::size_t>(
      std::max(4096.0, kFillAbortDensity * static_cast<double>(m) * m));

  for (int k = 0; k < m; ++k) {
    // ---- Markowitz pivot: the best live key ------------------------------
    if (!work.settle()) return SparseResult::Singular;  // no admissible pivot
    const int piv_row = work.heap.front().row;
    const auto [piv_pos, piv_val] = rows[piv_row][work.row_best[piv_row]];
    work.pop();

    prow_.push_back(piv_row);
    pcol_.push_back(piv_pos);
    diag_.push_back(piv_val);
    row_active[piv_row] = 0;
    work.touched.clear();

    // Freeze the pivot row as U row k (entries over still-active positions).
    std::vector<std::pair<int, double>>& prow_entries = rows[piv_row];
    u_start_.push_back(static_cast<int>(u_entries_.size()));
    for (const auto& [pos, val] : prow_entries) {
      touch(pos, k);
      --col_count[pos];
      if (pos == piv_pos) continue;
      u_entries_.emplace_back(pos, val);
    }

    // ---- eliminate the pivot position from the remaining active rows ----
    l_start_.push_back(static_cast<int>(l_entries_.size()));
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
      if (!found || v == 0.0) continue;  // stale candidate
      const double mult = v / piv_val;
      l_entries_.emplace_back(i, mult);

      // row_i -= mult * pivot_row, dropping the pivot position.
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
      for (const auto& [pos, val] : row) {
        touch(pos, k);
        --col_count[pos];
      }
      nnz -= row.size();
      std::vector<std::pair<int, double>>& next = work.next;
      next.clear();
      // Keep original-order positions first, then pivot-row fill-in, so the
      // rebuild is deterministic without a sort.
      for (const auto& [pos, val] : row) {
        if (pos == piv_pos || acc_stamp[pos] != stamp) continue;
        if (std::abs(acc[pos]) > kDropTol) next.emplace_back(pos, acc[pos]);
        acc_stamp[pos] = -1;
      }
      for (const auto& [pos, val] : prow_entries) {
        if (pos == piv_pos || acc_stamp[pos] != stamp) continue;
        if (std::abs(acc[pos]) > kDropTol) {
          next.emplace_back(pos, acc[pos]);
          col_rows[pos].push_back(i);  // fill-in
        }
        acc_stamp[pos] = -1;
      }
      row.assign(next.begin(), next.end());
      for (const auto& [pos, val] : row) ++col_count[pos];
      nnz += row.size();
    }
    cand.clear();

    if (nnz > fill_cap && m >= 32) return SparseResult::FillAbort;

    // ---- rescore the rows whose best entry may have moved ---------------
    // Rebuilt rows are this step's L entries.
    for (int e = l_start_[k]; e < static_cast<int>(l_entries_.size()); ++e) {
      const int i = l_entries_[e].first;
      work.row_stamp[i] = k;
      work.setFloor(i);
      work.rescore(i);
    }
    // So is every other active row holding a position whose count moved,
    // when that entry is the row's best or now costs no more than it.
    // Walking col_rows[pos] also prunes pivoted rows and repeats from it;
    // neither changes which rows a later elimination visits, nor their
    // order (a repeat is a no-op after its first visit).
    for (int pos : work.touched) {
      if (pos == piv_pos || col_count[pos] == work.count_before[pos]) continue;
      std::vector<int>& list = col_rows[pos];
      ++walk;
      std::size_t kept = 0;
      for (int i : list) {
        if (!row_active[i] || work.walk_stamp[i] == walk) continue;
        work.walk_stamp[i] = walk;
        list[kept++] = i;
        if (work.row_stamp[i] != k && work.needsRescore(i, pos)) {
          work.row_stamp[i] = k;
          work.rescore(i);
        }
      }
      list.resize(kept);
    }
    // At most one key per active row is live; once the stale ones outnumber
    // the active rows (+64), drop them so the heap stays O(m).
    if (work.heap.size() > 2 * static_cast<std::size_t>(m - k) + 64)
      work.rebuild();
  }
  l_start_.push_back(static_cast<int>(l_entries_.size()));
  u_start_.push_back(static_cast<int>(u_entries_.size()));
  factor_nnz_ = static_cast<std::int64_t>(l_entries_.size()) +
                static_cast<std::int64_t>(u_entries_.size()) + m;
  work_.assign(m, 0.0);
  work2_.assign(m, 0.0);
  return SparseResult::Ok;
}

bool BasisLu::factorDense(const std::vector<SparseColumn>& cols) {
  const int m = m_;
  dense_mode_ = true;
  dense_lu_.assign(static_cast<std::size_t>(m) * m, 0.0);
  for (int pos = 0; pos < m; ++pos)
    for (const auto& [row, val] : cols[pos])
      dense_lu_[static_cast<std::size_t>(row) * m + pos] += val;

  std::vector<int> order(m);
  for (int i = 0; i < m; ++i) order[i] = i;  // order[k] = original row of row k
  double* a = dense_lu_.data();
  for (int k = 0; k < m; ++k) {
    int best = k;
    double best_mag = std::abs(a[static_cast<std::size_t>(order[k]) * m + k]);
    for (int i = k + 1; i < m; ++i) {
      const double mag = std::abs(a[static_cast<std::size_t>(order[i]) * m + k]);
      if (mag > best_mag) {
        best_mag = mag;
        best = i;
      }
    }
    if (best_mag < kAbsPivotTol) return false;  // singular
    std::swap(order[k], order[best]);
    const double* pr = a + static_cast<std::size_t>(order[k]) * m;
    const double piv = pr[k];
    for (int i = k + 1; i < m; ++i) {
      double* ri = a + static_cast<std::size_t>(order[i]) * m;
      const double mult = ri[k] / piv;
      if (mult == 0.0) continue;
      ri[k] = mult;
      for (int j = k + 1; j < m; ++j) ri[j] -= mult * pr[j];
    }
  }
  dense_perm_ = std::move(order);
  factor_nnz_ = static_cast<std::int64_t>(m) * m;
  work_.assign(m, 0.0);
  work2_.assign(m, 0.0);
  return true;
}

void BasisLu::ftran(std::vector<double>& x) const {
  assert(valid_ && static_cast<int>(x.size()) == m_);
  const int m = m_;
  if (m == 0) return;
  if (dense_mode_) {
    // y = L^{-1} P x (forward), then back-substitute U; positions == steps.
    std::vector<double>& y = work_;
    const double* a = dense_lu_.data();
    for (int k = 0; k < m; ++k) {
      double v = x[dense_perm_[k]];
      const double* rk = a + static_cast<std::size_t>(dense_perm_[k]) * m;
      for (int j = 0; j < k; ++j) v -= rk[j] * y[j];
      y[k] = v;
    }
    for (int k = m - 1; k >= 0; --k) {
      double v = y[k];
      const double* rk = a + static_cast<std::size_t>(dense_perm_[k]) * m;
      for (int j = k + 1; j < m; ++j) v -= rk[j] * x[j];
      x[k] = v / rk[k];
    }
  } else {
    // Forward eliminate in row space: after step k, x[prow_[k]] is final.
    for (int k = 0; k < m; ++k) {
      const double xk = x[prow_[k]];
      if (xk != 0.0) {
        for (int e = l_start_[k]; e < l_start_[k + 1]; ++e)
          x[l_entries_[e].first] -= l_entries_[e].second * xk;
      }
    }
    // Back substitution: solution indexed by position, via scratch.
    std::vector<double>& sol = work_;
    for (int k = m - 1; k >= 0; --k) {
      double v = x[prow_[k]];
      for (int e = u_start_[k]; e < u_start_[k + 1]; ++e)
        v -= u_entries_[e].second * sol[u_entries_[e].first];
      sol[pcol_[k]] = v / diag_[k];
    }
    x.swap(sol);
  }
  applyEtasFtran(x);
}

void BasisLu::btran(std::vector<double>& x) const {
  assert(valid_ && static_cast<int>(x.size()) == m_);
  const int m = m_;
  if (m == 0) return;
  applyEtasBtran(x);
  if (dense_mode_) {
    std::vector<double>& y = work_;
    const double* a = dense_lu_.data();
    // Solve U^T z = x (forward over steps).
    for (int k = 0; k < m; ++k) {
      double v = x[k];
      for (int j = 0; j < k; ++j)
        v -= a[static_cast<std::size_t>(dense_perm_[j]) * m + k] * y[j];
      y[k] = v / a[static_cast<std::size_t>(dense_perm_[k]) * m + k];
    }
    // Solve L^T w = z (backward); scatter to original rows.
    for (int k = m - 1; k >= 0; --k) {
      double v = y[k];
      for (int j = k + 1; j < m; ++j)
        v -= a[static_cast<std::size_t>(dense_perm_[j]) * m + k] * y[j];
      y[k] = v;
    }
    for (int k = 0; k < m; ++k) x[dense_perm_[k]] = y[k];
  } else {
    // Solve U^T z = x: z_k = (x[pcol_k] - partial) / diag_k, where `partial`
    // accumulates earlier steps' U entries hitting position pcol_k.
    std::vector<double>& accum = work_;
    std::fill(accum.begin(), accum.end(), 0.0);
    std::vector<double>& z = work2_;
    for (int k = 0; k < m; ++k) {
      const double zk = (x[pcol_[k]] - accum[pcol_[k]]) / diag_[k];
      z[k] = zk;
      if (zk != 0.0) {
        for (int e = u_start_[k]; e < u_start_[k + 1]; ++e)
          accum[u_entries_[e].first] += u_entries_[e].second * zk;
      }
    }
    // Solve L^T w = z (backward over steps). L entry (row i, mult) at step k
    // couples step k with the step where row i is pivotal; iterating k
    // descending and keeping w indexed by original row makes w[row of later
    // step] final before it is consumed.
    std::vector<double>& w = work_;
    for (int k = 0; k < m; ++k) w[prow_[k]] = z[k];
    for (int k = m - 1; k >= 0; --k) {
      double v = w[prow_[k]];
      for (int e = l_start_[k]; e < l_start_[k + 1]; ++e)
        v -= l_entries_[e].second * w[l_entries_[e].first];
      w[prow_[k]] = v;
    }
    x.swap(w);
  }
}

bool BasisLu::update(int pos, const std::vector<double>& alpha) {
  assert(valid_ && pos >= 0 && pos < m_ &&
         static_cast<int>(alpha.size()) == m_);
  const double piv = alpha[pos];
  if (std::abs(piv) < kUpdatePivotTol) return false;
  eta_pos_.push_back(pos);
  eta_pivot_.push_back(piv);
  std::int64_t nnz = 1;
  for (int i = 0; i < m_; ++i) {
    if (i == pos) continue;
    const double v = alpha[i];
    if (std::abs(v) > kDropTol) {
      eta_entries_.emplace_back(i, v);
      ++nnz;
    }
  }
  eta_start_.push_back(static_cast<int>(eta_entries_.size()));
  eta_nnz_ += nnz;
  return true;
}

void BasisLu::applyEtasFtran(std::vector<double>& x) const {
  // E = I except column r = alpha; solve E w = v in sequence:
  //   w_r = v_r / alpha_r,  w_i = v_i - alpha_i * w_r.
  const int n_eta = static_cast<int>(eta_pos_.size());
  for (int e = 0; e < n_eta; ++e) {
    const int r = eta_pos_[e];
    const double wr = x[r] / eta_pivot_[e];
    x[r] = wr;
    if (wr != 0.0) {
      for (int t = eta_start_[e]; t < eta_start_[e + 1]; ++t)
        x[eta_entries_[t].first] -= eta_entries_[t].second * wr;
    }
  }
}

void BasisLu::applyEtasBtran(std::vector<double>& x) const {
  // Solve E^T w = v, most recent eta first:
  //   w_i = v_i (i != r),  w_r = (v_r - sum_{i != r} alpha_i v_i) / alpha_r.
  for (int e = static_cast<int>(eta_pos_.size()) - 1; e >= 0; --e) {
    const int r = eta_pos_[e];
    double v = x[r];
    for (int t = eta_start_[e]; t < eta_start_[e + 1]; ++t)
      v -= eta_entries_[t].second * x[eta_entries_[t].first];
    x[r] = v / eta_pivot_[e];
  }
}

}  // namespace pdw::ilp
