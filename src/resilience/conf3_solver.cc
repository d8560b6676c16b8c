#include "resilience/conf3_solver.h"

#include <algorithm>
#include <set>

#include "db/witness.h"
#include "resilience/linear_flow_solver.h"
#include "util/check.h"

namespace rescq {

std::optional<ResilienceResult> SolveForcedThenFlow(const Query& q,
                                                    const Database& db) {
  ResilienceResult result;
  result.solver = SolverKind::kConf3Forced;

  WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
  if (family.unbreakable) {
    result.unbreakable = true;
    return result;
  }
  if (family.size() == 0) return result;
  std::set<TupleId> forced;
  for (size_t i = 0; i < family.size(); ++i) {
    if (family.sets[i].len == 1) forced.insert(*family.begin(i));
  }

  // Flow on a copy with the forced tuples deleted: `db` may be shared by
  // concurrent solves, so it is never written. Tuple ids carry over.
  Database residual = db;
  for (TupleId t : forced) residual.SetActive(t, false);
  std::optional<ResilienceResult> flow = SolveLinearFlow(q, residual);
  if (!flow.has_value()) return std::nullopt;
  RESCQ_CHECK(!flow->unbreakable);

  result.resilience = static_cast<int>(forced.size()) + flow->resilience;
  result.contingency.assign(forced.begin(), forced.end());
  result.contingency.insert(result.contingency.end(),
                            flow->contingency.begin(),
                            flow->contingency.end());
  std::sort(result.contingency.begin(), result.contingency.end());
  return result;
}

}  // namespace rescq
