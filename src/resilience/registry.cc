#include "resilience/registry.h"

#include "complexity/linearity.h"
#include "resilience/conf3_solver.h"
#include "resilience/linear_flow_solver.h"
#include "resilience/perm3_solver.h"
#include "resilience/perm_solver.h"
#include "resilience/rep_solver.h"

namespace rescq {

constexpr SolverRow kSolverTable[kNumSolverKinds] = {
    {SolverKind::kExact, "exact", "Section 3",
     "branch-and-bound minimum hitting set over witness tuple-sets "
     "(correct for every CQ)",
     nullptr, nullptr},
    {SolverKind::kLinearFlow, "linear-flow", "Propositions 12, 31, 32",
     "linear-query network flow (covers sj-free triad-free components and "
     "confluences without exogenous path)",
     [](const Query& q, const Classification& c) {
       return (c.pattern == "sj-free-triad-free" ||
               c.pattern == "confluence") &&
              IsLinear(q);
     },
     [](const Query& q, const Database& db) { return SolveLinearFlow(q, db); }},
    // The unbound permutations split by shape: witness counting when the
    // pair is the whole endogenous part, the Prop 35 pair flow when one
    // more atom L hangs off one side (q_Aperm's König cover included).
    {SolverKind::kPermCount, "perm-count", "Proposition 33",
     "q_perm witness counting: each tuple lies in exactly one witness "
     "tuple-set",
     [](const Query& q, const Classification& c) {
       return c.pattern == "unbound-permutation" && PermutationCountApplies(q);
     },
     SolvePermutationCount},
    {SolverKind::kUnboundPermFlow, "unbound-perm-flow", "Propositions 33, 35",
     "unbound-permutation flow with capacity-1 pair edges (the König cover "
     "on q_Aperm)",
     [](const Query& q, const Classification& c) {
       return c.pattern == "unbound-permutation" &&
              UnboundPermutationFlowApplies(q);
     },
     SolveUnboundPermutationFlow},
    {SolverKind::kPerm3Flow, "perm3-flow", "Propositions 13, 44",
     "q_A3perm-R / q_Swx3perm-R pair-node flow",
     [](const Query& q, const Classification& c) {
       return (c.pattern == "catalog:q_A3perm_R" ||
               c.pattern == "catalog:q_Swx3perm_R") &&
              Perm3FlowApplies(q);
     },
     SolvePerm3Flow},
    {SolverKind::kRepFlow, "rep-flow", "Proposition 36",
     "z3-family flow with non-loop R-tuples forced undeletable",
     [](const Query& q, const Classification& c) {
       return c.pattern == "rep" && RepFlowApplies(q);
     },
     SolveRepFlow},
    {SolverKind::kConf3Forced, "conf3-forced", "Proposition 41",
     "q^TS_3conf forced singleton-witness tuples, then linear flow on the "
     "residual",
     [](const Query& q, const Classification& c) {
       return c.pattern == "catalog:q_TS3conf" && IsLinear(q);
     },
     SolveForcedThenFlow},
    // exact-fallback marks a PTIME component that no implemented
    // construction covers.
    {SolverKind::kExactFallback, "exact-fallback", "Section 3",
     "exact solver standing in for a PTIME construction that is not "
     "implemented",
     nullptr, nullptr},
};

constexpr bool RowsFollowKindOrder() {
  for (size_t i = 0; i < kNumSolverKinds; ++i) {
    if (static_cast<size_t>(kSolverTable[i].kind) != i) return false;
  }
  return true;
}
static_assert(RowsFollowKindOrder(),
              "kSolverTable row i must describe SolverKind i");

const char* SolverKindName(SolverKind kind) { return SolverRowOf(kind).name; }

}  // namespace rescq
