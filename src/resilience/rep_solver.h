#ifndef RESCQ_RESILIENCE_REP_SOLVER_H_
#define RESCQ_RESILIENCE_REP_SOLVER_H_

#include "cq/query.h"
#include "db/database.h"
#include "resilience/result.h"

namespace rescq {

/// True when q is linear and its only self-join is a binary REP pair:
/// the shape SolveRepFlow covers.
bool RepFlowApplies(const Query& q);

/// Proposition 36 (the z3 family): a linear query whose only self-join is
/// a REP pair sharing a variable, e.g. R(x,x),R(x,y),A(y). Every witness
/// matches the REP atom with a loop tuple R(a,a), so a non-loop tuple
/// R(a,b) is dominated by R(a,a) at the tuple level and never needed in a
/// minimum contingency set. The solver runs the linear-query network flow
/// with non-loop R-tuples forced undeletable.
///
/// Requires RepFlowApplies(q).
ResilienceResult SolveRepFlow(const Query& q, const Database& db);

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_REP_SOLVER_H_
