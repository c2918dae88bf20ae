#include "ilp/solver.h"

#include <cstdio>

#include "ilp/branch_bound.h"
#include "ilp/lp_backend.h"
#include "ilp/presolve.h"

namespace pdw::ilp {

std::string fingerprint(const SolveParams& params) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "engine=%s tl=%.3g nodes=%lld iters=%lld gap=%.3g presolve=%d "
      "probing=%d coeftight=%d cuts=%d%s%s cutrounds=%d branch=%s "
      "warm=%d rc=%d",
      params.engine.empty() ? defaultLpBackendName().c_str()
                            : params.engine.c_str(),
      params.time_limit_seconds, static_cast<long long>(params.node_limit),
      static_cast<long long>(params.simplex_iteration_limit), params.mip_gap,
      params.enable_presolve ? 1 : 0, params.probing ? 1 : 0,
      params.coef_tightening ? 1 : 0, params.cuts.enabled ? 1 : 0,
      params.cuts.enabled && !params.cuts.gomory ? " -gomory" : "",
      params.cuts.enabled && !params.cuts.cover ? " -cover" : "",
      params.cuts.max_rounds,
      params.branch_rule == BranchRule::Pseudocost ? "pseudocost" : "mostfrac",
      params.warm_lp ? 1 : 0, params.rc_fixing ? 1 : 0);
  return buf;
}

Solution solve(const Model& model, const SolveParams& params) {
  if (!params.enable_presolve) return solveMip(model, params);

  Model reduced = model;
  PresolveOptions options;
  options.feasibility_tol = params.feasibility_tol;
  options.probing = params.probing;
  options.coef_tightening = params.coef_tightening;
  const PresolveResult pre = presolve(reduced, options);
  if (pre.infeasible) {
    Solution result;
    result.status = SolveStatus::Infeasible;
    return result;
  }
  return solveMip(reduced, params);
}

}  // namespace pdw::ilp
