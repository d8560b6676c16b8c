#ifndef RESCQ_TESTS_LEGACY_WITNESS_H_
#define RESCQ_TESTS_LEGACY_WITNESS_H_

// The legacy witness-family enumerator, kept only as a test reference:
// its own enumeration and std::set dedup, with none of the arena, the
// budget or the unbreakable short-circuit of CollectWitnessFamily. The
// fuzz sweeps hold the two element-identical across the paper catalog.

#include <set>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "db/witness.h"

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

}  // namespace rescq

#endif  // RESCQ_TESTS_LEGACY_WITNESS_H_
