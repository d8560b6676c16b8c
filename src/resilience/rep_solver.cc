#include "resilience/rep_solver.h"

#include "complexity/patterns.h"
#include "resilience/linear_flow_solver.h"

namespace rescq {

std::optional<ResilienceResult> SolveRepFlow(const Query& q,
                                             const Database& db) {
  std::optional<SelfJoinInfo> sj = GetSingleSelfJoin(q);
  if (!sj.has_value() || sj->atoms.size() != 2) return std::nullopt;
  if (q.RelationArity(sj->relation) != 2) return std::nullopt;
  if (ClassifyPair(q, sj->atoms[0], sj->atoms[1]) != PairPattern::kRep) {
    return std::nullopt;
  }
  int r_rel = db.RelationId(sj->relation);
  std::optional<ResilienceResult> result = SolveLinearFlow(
      q, db, [r_rel](const Database& d, TupleId t) {
        if (t.relation != r_rel) return false;
        RowView row = d.Row(t);
        return row[0] != row[1];  // non-loop R tuples are never needed
      });
  if (result.has_value()) result->solver = SolverKind::kRepFlow;
  return result;
}

}  // namespace rescq
