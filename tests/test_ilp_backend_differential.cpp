// Dense-vs-revised differential suite: the two LpBackend implementations
// are independent codebases (dense tableau with free-splits vs sparse
// revised simplex over a factorized basis with native bounds), so agreement
// on status and objective across random LPs, random MIPs and the
// Table-II-derived PDW models is the main guard against silent numerics
// bugs in either (DESIGN.md §12).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "assay/benchmarks.h"
#include "core/pipeline.h"
#include "ilp/dual_simplex.h"
#include "ilp/lp_backend.h"
#include "ilp/simplex.h"
#include "ilp/solver.h"
#include "sim/metrics.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "util/rng.h"

namespace pdw::ilp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Random bounded LP. Variables are mostly boxed [lo, hi] with lo
/// occasionally negative; a few are fully free (exercising the dense
/// engine's free-split against the revised engine's native handling).
Model makeRandomLp(util::Rng& rng, int n, int rows) {
  Model m;
  std::vector<VarId> xs;
  LinExpr objective;
  for (int j = 0; j < n; ++j) {
    if (rng.chance(0.15)) {
      xs.push_back(m.addContinuous(-kInf, kInf));
    } else {
      const double lo = rng.chance(0.3)
                            ? -static_cast<double>(rng.intIn(1, 4))
                            : 0.0;
      xs.push_back(m.addContinuous(lo, lo + rng.intIn(3, 12)));
    }
    objective += static_cast<double>(rng.intIn(-5, 5)) * LinExpr(xs.back());
  }
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    int terms = 0;
    for (int j = 0; j < n; ++j) {
      if (!rng.chance(0.5)) continue;
      e += static_cast<double>(rng.intIn(-3, 5)) *
           LinExpr(xs[static_cast<std::size_t>(j)]);
      ++terms;
    }
    if (terms == 0) e += LinExpr(xs[rng.index(xs.size())]);
    const double rhs = static_cast<double>(rng.intIn(-5, 6 * n));
    switch (rng.intIn(0, 2)) {
      case 0: m.addLessEqual(e, rhs); break;
      case 1: m.addGreaterEqual(e, -rhs); break;
      default: m.addEqual(e, static_cast<double>(rng.intIn(0, n))); break;
    }
  }
  m.setObjective(objective);
  return m;
}

/// Small MIP with enough branching to produce non-root node LPs.
Model makeBranchyMip(util::Rng& rng, int n) {
  Model m;
  std::vector<VarId> xs;
  LinExpr objective, capacity;
  for (int j = 0; j < n; ++j) {
    xs.push_back(m.addInteger(0, 3));
    objective += -static_cast<double>(rng.intIn(1, 9)) * LinExpr(xs.back());
    capacity += static_cast<double>(rng.intIn(1, 7)) * LinExpr(xs.back());
  }
  m.addLessEqual(capacity, 5.0 * n / 2.0);
  for (int i = 0; i + 1 < n; i += 2)
    m.addLessEqual(LinExpr(xs[static_cast<std::size_t>(i)]) +
                       LinExpr(xs[static_cast<std::size_t>(i + 1)]),
                   4);
  m.setObjective(objective);
  return m;
}

SolveParams engineParams(const char* engine) {
  SolveParams p;
  p.time_limit_seconds = 10.0;
  p.engine = engine;
  return p;
}

TEST(BackendDifferential, RandomLpsAgreeOnStatusAndObjective) {
  // ~100 random bounded LPs (feasible, infeasible and unbounded draws all
  // occur): both backends must report the same status, and the same
  // objective within 1e-6 when Optimal.
  util::Rng rng(20260809);
  int optimal = 0, infeasible = 0, unbounded = 0;
  for (int inst = 0; inst < 100; ++inst) {
    const Model m = makeRandomLp(rng, 3 + inst % 10, 2 + inst % 8);
    const LpResult dense = solveLp(m, engineParams("dense"));
    const LpResult revised = solveLp(m, engineParams("revised"));
    ASSERT_EQ(dense.status, revised.status) << "instance " << inst;
    switch (dense.status) {
      case LpStatus::Optimal:
        ++optimal;
        EXPECT_NEAR(dense.objective, revised.objective, 1e-6)
            << "instance " << inst;
        break;
      case LpStatus::Infeasible: ++infeasible; break;
      case LpStatus::Unbounded: ++unbounded; break;
      default: break;
    }
  }
  // The generator must actually exercise the interesting regimes.
  EXPECT_GT(optimal, 40);
  EXPECT_GT(infeasible + unbounded, 5);
}

TEST(BackendDifferential, RandomMipsAgreeOnObjective) {
  // Full branch-and-bound differential: every node LP (warm and cold) runs
  // on the engine under test, so equal final objectives transitively check
  // thousands of node-LP agreements.
  util::Rng rng(31);
  for (int inst = 0; inst < 20; ++inst) {
    const Model m = makeBranchyMip(rng, 6 + inst % 5);
    const Solution dense = solve(m, engineParams("dense"));
    const Solution revised = solve(m, engineParams("revised"));
    ASSERT_EQ(dense.status, revised.status) << "instance " << inst;
    ASSERT_TRUE(dense.hasSolution()) << "instance " << inst;
    EXPECT_NEAR(dense.objective, revised.objective, 1e-6)
        << "instance " << inst;
  }
}

TEST(BackendDifferential, UnknownEngineIsRejected) {
  util::Rng rng(5);
  const Model m = makeRandomLp(rng, 6, 4);
  EXPECT_FALSE(isLpBackendName("no-such-engine"));
  EXPECT_THROW(makeLpBackend("no-such-engine", m, SolveParams{}),
               std::invalid_argument);
  EXPECT_THROW(solveLp(m, engineParams("no-such-engine")),
               std::invalid_argument);
  EXPECT_THROW(solve(m, engineParams("no-such-engine")),
               std::invalid_argument);
  // The empty name still means the default engine.
  EXPECT_TRUE(isLpBackendName(defaultLpBackendName()));
  EXPECT_EQ(solveLp(m, engineParams("")).status,
            solveLp(m, engineParams("revised")).status);
}

// ---- Table-II node-LP differential ---------------------------------------
//
// A wrapper backend registered through the public seam: every node LP the
// branch-and-bound issues (warm and cold alike) is solved by BOTH engines on
// the identical bound vector, and their objectives are compared on the
// spot. Driving a real PDW pipeline run through it covers every
// Table-II-derived node LP — thousands of instances with the exact bound
// patterns branching produces — rather than a hand-picked sample. The
// search itself follows the revised engine's results, so the run stays
// deterministic.

int g_node_lps = 0;
int g_compared = 0;
int g_mismatches = 0;

class DifferentialBackend final : public LpBackend {
 public:
  DifferentialBackend(const Model& model, const SolveParams& params)
      : dense_(std::make_unique<SimplexEngine>(model, params)),
        revised_(makeLpBackend("revised", model, params)) {}

  LpResult solve(const std::vector<double>& lower,
                 const std::vector<double>& upper, bool allow_warm,
                 bool* used_warm = nullptr,
                 std::int64_t* dual_pivots = nullptr) override {
    const LpResult d = dense_->solve(lower, upper, allow_warm);
    // Representation invariant: warm deltas and dual pivots must keep the
    // dense tableau consistent with the loaded row system. This is the probe
    // that caught the near-kEps dual pivots amplifying rounding noise into
    // persistent state corruption (see kDualPivotTol in dual_simplex.h).
    EXPECT_LT(dense_->debugMaxRowResidual(), 1e-6);
    const LpResult r =
        revised_->solve(lower, upper, allow_warm, used_warm, dual_pivots);
    compare(d, r);
    return r;
  }

  LpResult coldSolve(const std::vector<double>& lower,
                     const std::vector<double>& upper) override {
    const LpResult d = dense_->coldSolve(lower, upper);
    const LpResult r = revised_->coldSolve(lower, upper);
    compare(d, r);
    return r;
  }

  bool warmReady() const override { return revised_->warmReady(); }

  void collectReducedCostFixes(double gap, double integrality_tol,
                               std::vector<Fix>* out) const override {
    revised_->collectReducedCostFixes(gap, integrality_tol, out);
  }

  const char* name() const override { return "differential-test"; }

 private:
  static void compare(const LpResult& d, const LpResult& r) {
    ++g_node_lps;
    // Iteration caps trip at different points in the two implementations,
    // so statuses are only required to agree when neither run truncated.
    if (d.status != LpStatus::IterLimit && r.status != LpStatus::IterLimit) {
      EXPECT_EQ(d.status, r.status);
    }
    if (d.status != LpStatus::Optimal || r.status != LpStatus::Optimal)
      return;
    ++g_compared;
    if (std::abs(d.objective - r.objective) > 1e-6) {
      ++g_mismatches;
      ADD_FAILURE() << "node-LP objective mismatch: dense=" << d.objective
                    << " revised=" << r.objective;
    }
  }

  std::unique_ptr<SimplexEngine> dense_;
  std::unique_ptr<LpBackend> revised_;
};

class TableIIBackendDifferential
    : public ::testing::TestWithParam<assay::BenchmarkId> {};

TEST_P(TableIIBackendDifferential, NodeLpsAgreeAcrossBackends) {
  registerLpBackend("differential-test",
                    [](const Model& m, const SolveParams& p) {
                      return std::make_unique<DifferentialBackend>(m, p);
                    });
  g_node_lps = g_compared = g_mismatches = 0;

  const assay::Benchmark b = assay::makeBenchmark(GetParam());
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));

  // The node/iteration-bound deterministic budgets of
  // test_parallel_determinism.cpp keep the run cheap and reproducible.
  core::PdwOptions options = core::PdwOptions{}
                                 .withThreads(1)
                                 .withEngine("differential-test")
                                 .withScheduleBudget(1e6, 200)
                                 .withPathBudget(1e6, 400);
  options.solver.schedule.simplex_iteration_limit = 4000;
  options.solver.path.simplex_iteration_limit = 10000;
  const PdwResult result = Pipeline(std::move(options)).run(base.schedule);

  EXPECT_GT(result.schedule().washCount(), 0);
  EXPECT_GT(g_node_lps, 100) << "pipeline issued suspiciously few node LPs";
  EXPECT_GT(g_compared, 100);
  EXPECT_EQ(g_mismatches, 0)
      << "of " << g_compared << " optimal node-LP pairs";
}

INSTANTIATE_TEST_SUITE_P(
    SmallBenchmarks, TableIIBackendDifferential,
    ::testing::Values(assay::BenchmarkId::Pcr, assay::BenchmarkId::Ivd),
    [](const ::testing::TestParamInfo<assay::BenchmarkId>& info) {
      std::string name = assay::toString(info.param);
      for (char& c : name)
        if (c == ' ' || c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace pdw::ilp
