#ifndef RESCQ_DB_WITNESS_H_
#define RESCQ_DB_WITNESS_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "util/function_ref.h"
#include "util/span_arena.h"

namespace rescq {

/// One witness of D |= q: a valuation of all (existential) variables that
/// makes q true, together with the tuples matched by each atom.
struct Witness {
  /// Value per query VarId.
  std::vector<Value> assignment;
  /// Matched tuple per atom (atom order of the query). Two atoms of a
  /// self-join relation may match the same tuple.
  std::vector<TupleId> atom_tuples;
  /// The endogenous tuples used, sorted and deduplicated. This is the set
  /// a contingency set must intersect to kill this witness.
  std::vector<TupleId> endo_tuples;
};

/// "No cap" sentinel for witness enumeration budgets. Every enumeration
/// entry point takes an explicit limit; callers that really want
/// unbounded enumeration say so by passing this.
inline constexpr size_t kNoWitnessLimit = ~size_t{0};

/// Witness visitor: return false to stop enumeration early. A
/// FunctionRef (util/function_ref.h), so the hot enumeration loops never
/// allocate for the callback — call sites keep passing lambdas, which
/// convert implicitly, but must keep the callable alive for the call
/// (always true for a downward call, the only pattern in this repo).
using WitnessVisitor = FunctionRef<bool(const Witness&)>;

/// Streams every witness of q over the *active* tuples of db to `visit`,
/// one at a time, without materializing the set. The visited Witness is
/// only valid for the duration of the call. Return false from the
/// callback to stop enumeration early. Returns true iff enumeration ran
/// to completion (the callback never asked to stop).
bool ForEachWitness(const Query& q, const Database& db, WitnessVisitor visit);

/// Enumerates witnesses into a vector. `limit` caps the number returned
/// and is deliberately not defaulted — exploratory callers must say how
/// much blowup they accept (kNoWitnessLimit for "all of them").
std::vector<Witness> EnumerateWitnesses(const Query& q, const Database& db,
                                        size_t limit);

/// True if D |= q (early-exits at the first witness).
bool QueryHolds(const Query& q, const Database& db);

/// The deduplicated endogenous tuple-set family of (q, D), collected
/// streaming under a witness budget. This is what the exact solver
/// consumes: resilience is the minimum hitting set of the family.
///
/// Arena-backed: every set is a SetSpan into one TupleId pool
/// (deduplicated by content hash while streaming — no per-set vector is
/// ever allocated), and `sets` lists the distinct spans in ascending
/// lexicographic content order, the order the legacy
/// std::set<std::vector<TupleId>> representation produced.
struct WitnessFamily {
  /// Pool holding every distinct set's tuples contiguously.
  SpanArena<TupleId> arena;
  /// Distinct endogenous tuple-sets, each sorted; the family is sorted
  /// lexicographically by content.
  std::vector<SetSpan> sets;
  /// Raw witnesses visited (>= sets.size(); duplicates collapse).
  size_t witnesses = 0;
  /// Some witness used no endogenous tuple: q is unbreakable and
  /// enumeration short-circuited (`sets` is partial in that case).
  bool unbreakable = false;
  /// Enumeration stopped after `witness_limit` raw witnesses. `sets` is
  /// then an incomplete family and MUST NOT be used to compute an exact
  /// answer — callers surface this as a "witness budget exceeded"
  /// outcome instead of silently truncating.
  bool budget_exceeded = false;

  size_t size() const { return sets.size(); }
  const TupleId* begin(size_t i) const { return arena.data(sets[i]); }
  const TupleId* end(size_t i) const {
    return arena.data(sets[i]) + sets[i].len;
  }
  /// Materialized copy of set i (test / legacy convenience).
  std::vector<TupleId> set(size_t i) const {
    return std::vector<TupleId>(begin(i), end(i));
  }
  /// Materialized copy of the whole family in the legacy
  /// vector<vector<TupleId>> shape — for tests and differential checks
  /// only; the solving path consumes the spans directly.
  std::vector<std::vector<TupleId>> Materialize() const;
  /// Heap geometry of the family storage, O(1) (obs/memstats.h
  /// convention).
  uint64_t ApproxBytes() const;
};

/// Streams witnesses, deduplicating endogenous tuple-sets on the fly (no
/// Witness vector is ever materialized). Stops early when a witness with
/// an empty endogenous set proves q unbreakable, or when `witness_limit`
/// raw witnesses have been visited (budget_exceeded). Pass
/// kNoWitnessLimit for an unbounded collection.
WitnessFamily CollectWitnessFamily(const Query& q, const Database& db,
                                   size_t witness_limit);

/// A persistent enumeration context over one (query, database) pair:
/// relation resolution and the per-column row chains are built once and
/// *patched* as the database grows, instead of rebuilt on every
/// enumeration — ForEachWitness is a one-shot wrapper around the same
/// enumerator. This is what keeps incremental maintenance sublinear per
/// epoch: activity flips need no index work at all (activity is checked
/// at probe time), and appended rows are indexed by SyncNewRows in time
/// proportional to the append.
///
/// Each (relation, column) chains the rows holding one value in append
/// order: head/tail/count arrays indexed by Value (values are dense
/// Database ids, so a bound value is probed in O(1)) and a next array
/// indexed by row. The whole index is plain vectors, so its footprint is
/// their exact geometry.
///
/// The referenced query and database must outlive the index, and every
/// database mutation between enumerations must be followed by
/// SyncNewRows() (a cheap no-op when nothing was appended).
class WitnessIndex {
 public:
  WitnessIndex(const Query& q, const Database& db);
  ~WitnessIndex();
  WitnessIndex(const WitnessIndex&) = delete;
  WitnessIndex& operator=(const WitnessIndex&) = delete;

  /// Appends rows added since construction (or the last sync) to the
  /// row chains, growing the value arrays to constants interned since.
  /// Also resolves relations that did not exist yet when the index was
  /// built (an update stream may create them).
  void SyncNewRows();

  /// ForEachWitness over the prepared index.
  bool ForEach(WitnessVisitor visit);

  /// Streams only the witnesses *incident* to `changed` — those matching
  /// at least one changed tuple in some atom — to `visit`. This is the
  /// delta form of ForEach: after inserting tuples, the witness family
  /// gains exactly the witnesses incident to them; before deleting
  /// tuples (while they are still active), it loses exactly the incident
  /// ones. Each incident witness is visited exactly once, even when it
  /// uses several changed tuples or one changed tuple in several atoms
  /// (enumeration is anchored at the first atom, in query order, whose
  /// match is changed). Changed tuples that are inactive or whose
  /// relation the query does not mention contribute nothing. Same
  /// callback contract as ForEach; returns true iff enumeration ran to
  /// completion.
  bool ForEachDelta(const std::vector<TupleId>& changed,
                    WitnessVisitor visit);

  /// Heap bytes held by the index (row chains plus the enumerator's
  /// resident scratch), summed from vector geometry — cheap enough to
  /// read per probe.
  size_t ApproxBytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rescq

#endif  // RESCQ_DB_WITNESS_H_
