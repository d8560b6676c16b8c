#ifndef RESCQ_RESILIENCE_CONF3_SOLVER_H_
#define RESCQ_RESILIENCE_CONF3_SOLVER_H_

#include "cq/query.h"
#include "db/database.h"
#include "resilience/result.h"

namespace rescq {

/// Proposition 41 (q^TS_3conf): tuples that form a witness all by
/// themselves (singleton witness tuple-sets) are forced into every
/// contingency set. After deleting them, the remaining problem is solved
/// by the linear-query network flow; the proof's exchange argument shows
/// the flow's min cut is optimal on the residual database.
///
/// The solver is generic "forced tuples + linear flow"; the solver
/// table plans it for linear queries isomorphic to q^TS_3conf. Requires
/// IsLinear(q) (complexity/linearity.h).
ResilienceResult SolveForcedThenFlow(const Query& q, const Database& db);

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_CONF3_SOLVER_H_
