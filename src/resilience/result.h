#ifndef RESCQ_RESILIENCE_RESULT_H_
#define RESCQ_RESILIENCE_RESULT_H_

#include <string>
#include <vector>

#include "db/value.h"

namespace rescq {

/// Which algorithm produced a resilience result.
enum class SolverKind {
  kExact,             // branch-and-bound hitting set (any query)
  kLinearFlow,        // linear-query network flow (incl. Prop 31 confluence)
  kPermCount,         // q_perm witness counting (Prop 33)
  kUnboundPermFlow,   // unbound permutation flow (Prop 35, case 1; the
                      // q_Aperm König cover of Prop 33)
  kPerm3Flow,         // q_{A3perm-R} / q_{Swx3perm-R} pair flow (Props 13/44)
  kRepFlow,           // REP z3-style flow (Prop 36)
  kConf3Forced,       // q^TS_3conf forced tuples + flow (Prop 41)
  kExactFallback,     // PTIME-classified query without a matching
                      // implemented construction; solved exactly.
                      // Stays last: it sizes kSolverTable (registry.h).
};

/// The kind's report name, read from its kSolverTable row.
const char* SolverKindName(SolverKind kind);

/// The answer to a resilience computation on (q, D).
struct ResilienceResult {
  /// True if some witness uses no endogenous tuple: q cannot be made
  /// false by endogenous deletions, so resilience is undefined (infinite).
  bool unbreakable = false;

  /// ρ(q, D): the minimum number of endogenous tuples whose deletion
  /// makes q false. 0 if D does not satisfy q.
  int resilience = 0;

  /// A minimum contingency set achieving `resilience`.
  std::vector<TupleId> contingency;

  SolverKind solver = SolverKind::kExact;
};

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_RESULT_H_
