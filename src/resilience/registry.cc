#include "resilience/registry.h"

#include "complexity/linearity.h"
#include "resilience/conf3_solver.h"
#include "resilience/linear_flow_solver.h"
#include "resilience/perm3_solver.h"
#include "resilience/perm_solver.h"
#include "resilience/rep_solver.h"
#include "util/check.h"

namespace rescq {

namespace {

bool PatternIs(const Classification& c, const char* pattern) {
  return c.pattern == pattern;
}

// A planned construction's probe already ran its shape matcher, and the
// matchers read no data, so the construction cannot decline.
ResilienceResult Planned(std::optional<ResilienceResult> result) {
  RESCQ_CHECK_MSG(result.has_value(),
                  "a planned construction declined its component");
  return std::move(*result);
}

}  // namespace

void SolverRegistry::Register(SolverEntry entry) {
  const char* name = SolverKindName(entry.kind);
  for (const SolverEntry& existing : entries_) {
    RESCQ_CHECK_MSG(existing.kind != entry.kind, name);
  }
  RESCQ_CHECK_MSG((entry.probe == nullptr) == (entry.run == nullptr), name);
  entries_.push_back(std::move(entry));
}

const SolverEntry* SolverRegistry::Find(SolverKind kind) const {
  for (const SolverEntry& e : entries_) {
    if (e.kind == kind) return &e;
  }
  return nullptr;
}

std::optional<SolverKind> SolverRegistry::Probe(
    const Query& component, const Classification& c) const {
  for (const SolverEntry& e : entries_) {
    if (e.probe != nullptr && e.probe(component, c)) return e.kind;
  }
  return std::nullopt;
}

const SolverRegistry& DefaultRegistry() {
  static const SolverRegistry* const kRegistry = [] {
    auto* r = new SolverRegistry();

    r->Register({SolverKind::kLinearFlow, "Propositions 12, 31, 32",
                 "linear-query network flow (covers sj-free triad-free "
                 "components and confluences without exogenous path)",
                 [](const Query& q, const Classification& c) {
                   return (PatternIs(c, "sj-free-triad-free") ||
                           PatternIs(c, "confluence")) &&
                          IsLinear(q);
                 },
                 [](const Query& q, const Database& db) {
                   return Planned(SolveLinearFlow(q, db));
                 }});

    r->Register({SolverKind::kRepFlow, "Proposition 36",
                 "z3-family flow with non-loop R-tuples forced undeletable",
                 [](const Query& q, const Classification& c) {
                   return PatternIs(c, "rep") && RepFlowApplies(q);
                 },
                 [](const Query& q, const Database& db) {
                   return Planned(SolveRepFlow(q, db));
                 }});

    // The unbound permutations split by shape: witness counting when the
    // pair is the whole endogenous part, the Prop 35 pair flow when one
    // more atom L hangs off one side (q_Aperm's König cover included).
    r->Register({SolverKind::kPermCount, "Proposition 33",
                 "q_perm witness counting: each tuple lies in exactly one "
                 "witness tuple-set",
                 [](const Query& q, const Classification& c) {
                   return PatternIs(c, "unbound-permutation") &&
                          PermutationCountApplies(q);
                 },
                 [](const Query& q, const Database& db) {
                   return Planned(SolvePermutationCount(q, db));
                 }});

    r->Register({SolverKind::kUnboundPermFlow, "Propositions 33, 35",
                 "unbound-permutation flow with capacity-1 pair edges "
                 "(the König cover on q_Aperm)",
                 [](const Query& q, const Classification& c) {
                   return PatternIs(c, "unbound-permutation") &&
                          UnboundPermutationFlowApplies(q);
                 },
                 [](const Query& q, const Database& db) {
                   return Planned(SolveUnboundPermutationFlow(q, db));
                 }});

    r->Register({SolverKind::kPerm3Flow, "Propositions 13, 44",
                 "q_A3perm-R / q_Swx3perm-R pair-node flow",
                 [](const Query& q, const Classification& c) {
                   return (PatternIs(c, "catalog:q_A3perm_R") ||
                           PatternIs(c, "catalog:q_Swx3perm_R")) &&
                          Perm3FlowApplies(q);
                 },
                 [](const Query& q, const Database& db) {
                   return Planned(SolvePerm3Flow(q, db));
                 }});

    r->Register({SolverKind::kConf3Forced, "Proposition 41",
                 "q^TS_3conf forced singleton-witness tuples, then linear "
                 "flow on the residual",
                 [](const Query& q, const Classification& c) {
                   return PatternIs(c, "catalog:q_TS3conf") && IsLinear(q);
                 },
                 [](const Query& q, const Database& db) {
                   return Planned(SolveForcedThenFlow(q, db));
                 }});

    // The exact entries: exact is the planned solver for NP-complete /
    // open / out-of-scope components; exact-fallback marks a PTIME
    // component that no implemented construction covers.
    r->Register({SolverKind::kExact, "Section 3",
                 "branch-and-bound minimum hitting set over witness "
                 "tuple-sets (correct for every CQ)",
                 nullptr, nullptr});
    r->Register({SolverKind::kExactFallback, "Section 3",
                 "exact solver standing in for a PTIME construction that is "
                 "not implemented",
                 nullptr, nullptr});

    return r;
  }();
  return *kRegistry;
}

}  // namespace rescq
