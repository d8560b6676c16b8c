#include "resilience/rep_solver.h"

#include <string>

#include "complexity/linearity.h"
#include "complexity/patterns.h"
#include "resilience/linear_flow_solver.h"
#include "util/check.h"

namespace rescq {

namespace {

// The relation of q's REP self-join pair, or nullopt when q's only
// self-join is not a binary REP pair.
std::optional<std::string> MatchRepRelation(const Query& q) {
  std::optional<SelfJoinInfo> sj = GetSingleSelfJoin(q);
  if (!sj.has_value() || sj->atoms.size() != 2) return std::nullopt;
  if (q.RelationArity(sj->relation) != 2) return std::nullopt;
  if (ClassifyPair(q, sj->atoms[0], sj->atoms[1]) != PairPattern::kRep) {
    return std::nullopt;
  }
  return sj->relation;
}

}  // namespace

bool RepFlowApplies(const Query& q) {
  return MatchRepRelation(q).has_value() && IsLinear(q);
}

ResilienceResult SolveRepFlow(const Query& q, const Database& db) {
  std::optional<std::string> rep = MatchRepRelation(q);
  RESCQ_CHECK_MSG(rep.has_value(), "rep flow needs a binary REP self-join");
  int r_rel = db.RelationId(*rep);
  ResilienceResult result = SolveLinearFlow(
      q, db, [r_rel](const Database& d, TupleId t) {
        if (t.relation != r_rel) return false;
        RowView row = d.Row(t);
        return row[0] != row[1];  // non-loop R tuples are never needed
      });
  result.solver = SolverKind::kRepFlow;
  return result;
}

}  // namespace rescq
