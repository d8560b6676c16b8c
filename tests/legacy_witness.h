#ifndef RESCQ_TESTS_LEGACY_WITNESS_H_
#define RESCQ_TESTS_LEGACY_WITNESS_H_

// The legacy witness-family representation, kept only as a test
// reference: its own enumeration and std::set dedup, with none of the
// arena, the budget or the unbreakable short-circuit of
// CollectWitnessFamily. The fuzz sweeps hold the two element-identical
// across the paper catalog, and LegacyFamilyBytes prices what the
// legacy form held so the arena's saving stays measured.

#include <set>
#include <unordered_set>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "db/witness.h"
#include "obs/memstats.h"

namespace rescq {

/// The distinct endogenous tuple-sets of all witnesses, each sorted, in
/// ascending lexicographic order. Unbounded; a witness with an empty
/// set (q unbreakable) contributes the empty set and enumeration goes on.
inline std::vector<std::vector<TupleId>> WitnessTupleSets(const Query& q,
                                                          const Database& db) {
  std::set<std::vector<TupleId>> sets;
  ForEachWitness(q, db, [&](const Witness& w) {
    sets.insert(w.endo_tuples);
    return true;
  });
  return std::vector<std::vector<TupleId>>(sets.begin(), sets.end());
}

struct TupleVecHash {
  size_t operator()(const std::vector<TupleId>& v) const {
    size_t h = 1469598103934665603ull;
    for (const TupleId& t : v) {
      h ^= TupleIdHash()(t);
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// What the legacy representation held for one collected family: the
/// materialized per-set vectors plus the content-hash dedup index that
/// owned its own copy of every set, measured with the same geometry
/// helpers WitnessFamily::ApproxBytes uses (obs/memstats.h).
inline uint64_t LegacyFamilyBytes(
    const std::vector<std::vector<TupleId>>& sets) {
  std::unordered_set<std::vector<TupleId>, TupleVecHash> dedup(sets.begin(),
                                                               sets.end());
  uint64_t bytes = obs::NestedVectorBytes(sets);
  bytes += obs::HashContainerBytes(dedup);
  for (const std::vector<TupleId>& s : dedup) bytes += obs::VectorBytes(s);
  return bytes;
}

}  // namespace rescq

#endif  // RESCQ_TESTS_LEGACY_WITNESS_H_
