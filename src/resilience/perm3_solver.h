#ifndef RESCQ_RESILIENCE_PERM3_SOLVER_H_
#define RESCQ_RESILIENCE_PERM3_SOLVER_H_

#include "cq/query.h"
#include "db/database.h"
#include "resilience/result.h"

namespace rescq {

/// True when q matches q_A3perm-R or q_Swx3perm-R up to the renamings
/// below: the shape SolvePerm3Flow covers.
bool Perm3FlowApplies(const Query& q);

/// Flow algorithm for the "permutation plus R" PTIME queries
///
///   q_A3perm-R  :- A(x),   R(x,y), R(y,z), R(z,y)   (Proposition 13)
///   q_Swx3perm-R:- S(w,x), R(x,y), R(y,z), R(z,y)   (Proposition 44)
///
/// recognized up to variable renaming, relation renaming, and a global
/// column swap of R. The flow graph follows the paper's proofs:
///
///   s --cap1 per L-tuple--> v_a
///   v_a --inf--> pair{u,v}            if a ∈ {u,v}
///   v_a --R(a,b)--> u_b --inf--> pair{u,v} containing b,
///       where the R(a,b) edge is a *1-way* tuple (no inverse), with
///       capacity ∞ when L is unary (A(a) dominates it) and capacity 1
///       when L is binary (Prop 44: S(e,a) does not dominate R(a,b))
///   pair{u,v} --cap1--> t             one per 2-way pair (incl. loops)
///
/// A minimum cut maps to a minimum contingency set (SolveMinCut,
/// resilience/flow_cut.h): cut L-edges and (binary case) cut 1-way
/// R-edges are taken verbatim; for a cut pair {a,b} the proofs' side rule
/// picks R(b,a) when b's side is still alive (v_b on the cut's source
/// side) and a's is not, and R(a,b) otherwise.
///
/// Requires Perm3FlowApplies(q).
ResilienceResult SolvePerm3Flow(const Query& q, const Database& db);

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_PERM3_SOLVER_H_
