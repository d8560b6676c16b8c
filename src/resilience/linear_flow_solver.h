#ifndef RESCQ_RESILIENCE_LINEAR_FLOW_SOLVER_H_
#define RESCQ_RESILIENCE_LINEAR_FLOW_SOLVER_H_

#include <functional>
#include <optional>

#include "cq/query.h"
#include "db/database.h"
#include "resilience/result.h"

namespace rescq {

/// Treats selected tuples as undeletable in the flow network even though
/// their atoms are endogenous (used by the REP solver, which proves
/// non-loop R-tuples are never needed in a minimum contingency set).
using TupleOverride = std::function<bool(const Database&, TupleId)>;

/// Computes resilience for a *linear* query by reduction to network flow
/// ([31]; Proposition 31 for the confluence case):
///
///  - arrange the atoms in a linear order; between consecutive atoms the
///    shared variables form an "interface";
///  - each *tuple* of the i-th atom's relation that passes the atom's
///    repeated-variable filter is an edge at position i, from the node of
///    its left interface values to the node of its right ones (one edge
///    per (position, tuple)); the network is built from the tuples in
///    O(|D|·m), never from the witnesses;
///  - every s-t path is a witness; a dangling tuple (in no witness) lies
///    on no s-t path, so it carries no flow and is never cut;
///  - endogenous tuples get capacity 1, exogenous (or overridden) tuples
///    get ∞;
///  - a minimum cut is a minimum contingency set.
///
/// With a self-join, one tuple may appear at several positions (the
/// paper's duplicated R_l/R_r edges); Lemma 55 shows a minimal cut never
/// takes two copies of one tuple, and cardinality-minimal cuts are
/// inclusion-minimal, so the cut maps 1:1 onto tuples. This holds for
/// confluences and REP queries, but NOT for permutations — exactly the
/// paper's point in Section 7.3 — so callers must not use this solver on
/// permutation self-joins.
///
/// Returns nullopt unless IsLinear(q) (complexity/linearity.h).
std::optional<ResilienceResult> SolveLinearFlow(
    const Query& q, const Database& db,
    const TupleOverride& force_undeletable = nullptr);

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_LINEAR_FLOW_SOLVER_H_
