#ifndef RESCQ_IJP_IJP_H_
#define RESCQ_IJP_IJP_H_

#include <optional>
#include <string>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "db/witness.h"

namespace rescq {

/// A candidate Independent Join Path (Definition 48): a database together
/// with the two distinguished endpoint tuples of one relation.
struct IjpCandidate {
  const Database* db;
  TupleId endpoint_a;
  TupleId endpoint_b;
};

/// Outcome of checking Definition 48's five conditions.
struct IjpCheckResult {
  bool is_ijp = false;
  /// 1-based index of the first violated condition (0 when is_ijp).
  int failed_condition = 0;
  std::string explanation;
  /// Condition 5's base resilience c (valid when conditions 1-4 hold).
  int resilience = 0;
};

/// Checks whether (db, endpoints) forms an Independent Join Path for q:
///  (1) endpoints belong to one relation R, with incomparable constant
///      sets (a ⊈ b, b ⊈ a);
///  (2) each endpoint participates in exactly one witness, and that
///      witness has exactly m = |atoms(q)| distinct tuples;
///  (3) no endogenous relation has a tuple whose constant set is a
///      proper subset of an endpoint's;
///  (4) for every exogenous tuple equal to a subvector a_j of endpoint a,
///      the same relation also contains b_j (and vice versa);
///  (5) with ρ(q, D) = c, removing endpoint a, endpoint b, or both each
///      leaves resilience c - 1 (the "or-property").
/// Condition 5 uses the exact solver (4 calls).
IjpCheckResult CheckIjp(const Query& q, Database& db, TupleId endpoint_a,
                        TupleId endpoint_b);

namespace internal {

/// CheckIjp given `witnesses`, the witnesses of (q, db) as db stands.
/// CheckIjp enumerates them and calls this; SearchForIjp enumerates each
/// partition database once and checks all of its endpoint pairs against
/// that one list.
IjpCheckResult CheckIjp(const Query& q, Database& db, TupleId endpoint_a,
                        TupleId endpoint_b,
                        const std::vector<Witness>& witnesses);

}  // namespace internal

}  // namespace rescq

#endif  // RESCQ_IJP_IJP_H_
