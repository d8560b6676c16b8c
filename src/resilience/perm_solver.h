#ifndef RESCQ_RESILIENCE_PERM_SOLVER_H_
#define RESCQ_RESILIENCE_PERM_SOLVER_H_

#include "cq/query.h"
#include "db/database.h"
#include "resilience/result.h"

namespace rescq {

/// True when q's endogenous atoms are exactly one permutation pair
/// R(x,y),R(y,x): the shape SolvePermutationCount covers.
bool PermutationCountApplies(const Query& q);

/// Proposition 33 (q_perm): when the permutation pair R(x,y),R(y,x) are
/// the only endogenous atoms, each tuple belongs to exactly one witness
/// tuple-set, so resilience equals the number of distinct witness
/// tuple-sets. Requires PermutationCountApplies(q).
ResilienceResult SolvePermutationCount(const Query& q, const Database& db);

/// True when q's endogenous atoms are a permutation pair plus exactly one
/// atom L that contains one of the pair's variables but not the other:
/// the shape SolveUnboundPermutationFlow covers.
bool UnboundPermutationFlowApplies(const Query& q);

/// Proposition 35, case 1 (unbound permutations): q = q_l(x), G(x,y) where
/// q_l has exactly one endogenous atom. Network flow with a capacity-1
/// pair edge per 2-way pair. On q_Aperm this is Proposition 33's König
/// cover of the bipartite graph (L-tuples) x (2-way pairs): the source
/// side of the residual graph is König's alternating-path set, the same
/// for every maximum matching. Max-flow handles weighted L sides and
/// exogenous decorations of G uniformly. A cut pair edge deletes the
/// pair's smaller tuple. Requires UnboundPermutationFlowApplies(q).
ResilienceResult SolveUnboundPermutationFlow(const Query& q,
                                             const Database& db);

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_PERM_SOLVER_H_
