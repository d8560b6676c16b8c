#ifndef RESCQ_RESILIENCE_SOLVER_H_
#define RESCQ_RESILIENCE_SOLVER_H_

#include <vector>

#include "complexity/classifier.h"
#include "cq/query.h"
#include "db/database.h"
#include "resilience/result.h"

namespace rescq {

/// Computes the resilience ρ(q, D) with the best available algorithm.
///
/// Thin wrapper over a process-shared ResilienceEngine (see engine.h):
/// the query analysis is planned once per distinct query and memoized,
/// and the plan names one solver per component. The pipeline follows the
/// paper: minimize the query (Section 4.1), normalize domination
/// (Proposition 18), split into components (Lemma 14: the minimum over
/// components), classify (Theorem 37 / Section 8), and then:
///
///  - PTIME components that a published construction covers run it
///    (linear flow, permutation count / pair flow, REP flow,
///    forced-tuples + flow, the Prop 13/44 pair-node flow);
///  - PTIME components that no implemented construction covers run the
///    exact solver (`kExactFallback`);
///  - NP-complete / open / out-of-scope queries use the exact
///    branch-and-bound solver (`kExact`), which is correct for every CQ.
ResilienceResult ComputeResilience(const Query& q, const Database& db);

/// Like ComputeResilience but forces the exact solver (reference
/// oracle); equivalent to an engine with EngineOptions::force_exact.
ResilienceResult ComputeResilienceReference(const Query& q,
                                            const Database& db);

/// True if deactivating `tuples` makes q false over db (db is restored
/// before returning).
bool VerifyContingency(const Query& q, Database& db,
                       const std::vector<TupleId>& tuples);

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_SOLVER_H_
