#include "resilience/solver.h"

#include "db/witness.h"
#include "resilience/engine.h"
#include "resilience/exact_solver.h"

namespace rescq {

namespace {

// The process-wide engine behind ComputeResilience. Plans are shared
// across every caller (mutex-guarded LRU), so even code that never sees
// a ResilienceEngine benefits from plan reuse.
ResilienceEngine& SharedEngine() {
  static ResilienceEngine* const kEngine = new ResilienceEngine();
  return *kEngine;
}

}  // namespace

ResilienceResult ComputeResilience(const Query& q, const Database& db) {
  return SharedEngine().Solve(q, db).result;
}

ResilienceResult ComputeResilienceReference(const Query& q,
                                            const Database& db) {
  return ComputeResilienceExact(q, db);
}

bool VerifyContingency(const Query& q, Database& db,
                       const std::vector<TupleId>& tuples) {
  std::vector<std::pair<TupleId, bool>> saved;
  for (TupleId t : tuples) {
    saved.emplace_back(t, db.IsActive(t));
    db.SetActive(t, false);
  }
  bool broken = !QueryHolds(q, db);
  // Restore in reverse: with duplicate ids in `tuples` the second
  // occurrence saves "already inactive", and a forward restore would
  // apply that state last, leaving the tuple deactivated.
  for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
    db.SetActive(it->first, it->second);
  }
  return broken;
}

}  // namespace rescq
