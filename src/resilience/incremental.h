#ifndef RESCQ_RESILIENCE_INCREMENTAL_H_
#define RESCQ_RESILIENCE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "db/delta.h"
#include "db/witness.h"
#include "obs/memstats.h"
#include "resilience/exact_solver.h"
#include "util/span_arena.h"

namespace rescq {

/// Everything one epoch application reports. Epoch 0 is the initial full
/// build; later epochs are incremental.
struct EpochOutcome {
  int epoch = 0;
  int inserted = 0;            // tuples whose activity actually flipped on
  int deleted = 0;             // ... and off
  size_t delta_witnesses = 0;  // witnesses streamed this epoch (epoch 0:
                               // the full enumeration)
  size_t family_sets = 0;      // live distinct endogenous sets afterwards
  /// Certified interval around the answer: `upper_bound` is the size of
  /// the maintained feasible contingency set (= `resilience`), and
  /// `lower_bound` the sum over components of their proven optima or,
  /// for a component left unproven, of HittingSetLowerBound on its sets.
  /// They are equal whenever every component's proof is complete; they
  /// separate only when a node budget stopped the search of an
  /// epoch's re-solve.
  int lower_bound = 0;
  int upper_bound = 0;
  /// The epoch's re-solve branched: some component of its exact search
  /// expanded more than its root node (ExactStats::nodes > components).
  bool resolved = false;
  bool unbreakable = false;
  int resilience = 0;
  std::vector<TupleId> contingency;  // a minimum contingency set
  /// True when a budget stopped this epoch; `error` says which. A
  /// witness budget poisons the session (the family is incomplete, so
  /// every later epoch reports the same error); an exhausted node budget
  /// keeps a feasible `resilience` that is only an upper bound.
  bool budget_exceeded = false;
  std::string error;
  double wall_ms = 0;
};

/// Incremental resilience under an update stream.
///
/// The session owns a Database and the deduplicated endogenous
/// set-family of (q, D) *with per-set witness support counts*: by the
/// witness-based formulation, an epoch of base-table updates only adds
/// witnesses incident to inserted tuples and only removes witnesses
/// incident to deleted ones, so the family is maintained from a
/// persistent WitnessIndex's delta streams instead of re-enumerated. A
/// set leaves the family when its last supporting witness dies; the
/// empty set's support count is the number of unbreakable witnesses.
///
/// The family lives in a SpanArena (util/span_arena.h): each distinct
/// endogenous tuple-set is interned once — by content hash, straight
/// from the enumerator's scratch, no key vector is ever allocated — and
/// identified by a dense SetId for the rest of the session. All per-set
/// state (support count, component membership, the set in dense element
/// ids) is in flat arrays indexed by SetId, so an epoch's support
/// arithmetic touches a handful of cache lines per witness and the
/// family's footprint is plain arena geometry.
///
/// On top of the family the session maintains the *hitting-set
/// decomposition itself* incrementally: the family's connected
/// components (sets sharing no element are independent, so minima add)
/// are kept as labelled component records with per-element labels.
/// An epoch dissolves only the components its set additions/removals
/// actually touch and re-answers that region with one
/// SolveMinHittingSet call — the same exact solver every other path
/// uses, so the session has no hitting-set logic of its own. The
/// region's solution is split back into the new components and adopted
/// in partition order. Untouched components cost nothing, so epoch work
/// scales with the churn's footprint, not the database.
///
/// The session holds one ExactOptions and hands it to every re-solve:
/// `witness_limit` caps the witness stream per epoch (exceeding it is a
/// structured error, never a silently wrong answer), `node_budget` caps
/// the node count of each epoch's whole re-solve, and `solver_threads`
/// fans the re-solve's components out to workers. Epochs therefore carry the
/// exact solver's determinism contract: every outcome — contingency set
/// included — is byte-identical at any thread count, except that an
/// epoch which exhausts its node budget under `solver_threads > 1` may
/// stop at a different point on different runs. A budget-stopped epoch
/// keeps each re-solved component's feasible upper bound, certifies it
/// with HittingSetLowerBound where it can, and retries an unproven
/// component when next touched.
///
/// Thread contract — one writer, concurrent readers of published
/// answers: Apply and EvictColdState are the only mutators and must be
/// externally serialized (one at a time, never concurrent with any
/// other member). The read-only accessors — Peek/current, poisoned,
/// db, query, epochs_applied, index_resident, evictions, rebuilds,
/// ApproxMemory — may be called from any number of threads
/// concurrently with each other, provided the caller establishes a
/// happens-before edge from the last mutation (the server's session
/// registry does this with a per-session shared mutex: mutators under
/// the exclusive lock, readers under the shared one). Peek never
/// re-enters the solve path; it returns the answer the last epoch
/// published.
class IncrementalSession {
 public:
  /// Builds the family for `q` over `base` (the epoch-0 full build) and
  /// solves it once. The session owns its copy of the database.
  IncrementalSession(const Query& q, Database base, ExactOptions options = {});

  // The witness index and component records hold indices into the
  // session's own structures.
  IncrementalSession(const IncrementalSession&) = delete;
  IncrementalSession& operator=(const IncrementalSession&) = delete;

  const Query& query() const { return q_; }
  const Database& db() const { return db_; }
  int epochs_applied() const { return epoch_count_; }

  /// The latest outcome (epoch 0's right after construction): a cheap
  /// read-only view of the published answer for `resilience`/`stats`
  /// style requests. Never solves, never touches the index — one
  /// reference return (see the thread contract above).
  const EpochOutcome& Peek() const { return last_; }

  /// True once an epoch's witness budget tripped: the maintained family
  /// is incomplete and every later Apply reports the same structured
  /// error. (A node-budget stop does NOT poison — the session keeps a
  /// feasible upper bound and retries the component when next touched.)
  bool poisoned() const { return poisoned_; }

  /// Applies the epoch's updates, maintains family and decomposition
  /// from delta witness streams, and re-answers only the touched
  /// region. Returns (and remembers) the epoch's outcome. When the
  /// session was evicted (EvictColdState), the witness index is
  /// rebuilt here first — lazily, so evicted sessions that are never
  /// touched again never pay for it.
  EpochOutcome Apply(const Epoch& epoch);

  /// Drops the rebuildable hot state — the WitnessIndex row chains
  /// and the refresh scratch — and returns the approximate bytes freed.
  /// The family, the decomposition, and the published answer survive:
  /// Peek() keeps answering, and the next Apply() rebuilds the index
  /// from the database (a fresh index over the current rows enumerates
  /// exactly what a synced one would — activity is checked at probe
  /// time). A mutator under the thread contract: callers hold the same
  /// exclusive lock Apply needs. Idempotent; returns 0 when already
  /// evicted.
  size_t EvictColdState();

  /// False while evicted (between EvictColdState and the next Apply).
  bool index_resident() const { return index_ != nullptr; }
  /// Lifetime counts of EvictColdState() drops and lazy index rebuilds
  /// — the per-session view of the mem.evictions / mem.rebuilds
  /// counters.
  uint64_t evictions() const { return evictions_; }
  uint64_t rebuilds() const { return rebuilds_; }

  /// Approximate heap footprint of the session's maintained state —
  /// the witness index's row chains, the set-family (arena + flat
  /// per-set state + dense id space), and the component records — from
  /// container geometry (obs/memstats.h). O(live containers), computed
  /// per epoch behind the metrics gate and per registry sweep, never
  /// per update.
  obs::MemBreakdown ApproxMemory() const;

 private:
  /// Per-set state, indexed by the set's arena SetId (dense,
  /// first-appearance order, stable for the session's lifetime). The
  /// set's elements live in the arena span; `dense_pool_` mirrors the
  /// arena pool with the elements' dense ids, so the dense form needs
  /// no storage here. `label`/`label_slot` place the set in its
  /// component record (label -1 = pending or dead).
  struct SetState {
    int64_t count = 0;
    int label = -1;
    int label_slot = -1;
  };

  /// One live component: its member SetIds (-1 tombstones keep
  /// label_slots stable; the record is dissolved and rebuilt whenever a
  /// member set is added or removed), a feasible minimum-or-upper-bound
  /// `size` with its solution, and the certified lower bound (`size`
  /// when `proven`).
  struct Component {
    std::vector<int32_t> sets;
    int size = 0;
    int lower = 0;
    bool proven = true;
    std::vector<int> solution;  // dense element ids
  };

  /// Interns a tuple into the dense id space.
  int DenseId(TupleId t);

  /// The dense-element form of set `id`: the arena span's offsets into
  /// dense_pool_.
  const int* DenseBegin(int32_t id) const {
    return dense_pool_.data() + family_arena_.span(static_cast<uint32_t>(id))
                                    .offset;
  }
  uint32_t SetLen(int32_t id) const {
    return family_arena_.span(static_cast<uint32_t>(id)).len;
  }

  /// Shifts one witness's set support by `sign`, maintaining the arena
  /// interning, the affected-region lists, and the component
  /// tombstones.
  void TouchSet(const std::vector<TupleId>& endo_tuples, int64_t sign);

  /// Streams witnesses incident to `changed` and shifts their sets'
  /// support by `sign`. Returns false when the epoch witness budget
  /// tripped (the session is then poisoned).
  bool ShiftSupport(const std::vector<TupleId>& changed, int64_t sign,
                    EpochOutcome* out);

  /// Dissolves the affected components, re-partitions their sets plus
  /// the epoch's fresh ones, re-solves that region with one exact call,
  /// and fills `out`.
  void Refresh(EpochOutcome* out);

  /// Installs a finished component record and updates the running
  /// totals.
  void AdoptComponent(int label, Component component);

  Query q_;
  Database db_;
  ExactOptions options_;
  /// Null while evicted; rebuilt lazily at the top of Apply.
  std::unique_ptr<WitnessIndex> index_;

  /// The set-family: every distinct endogenous tuple-set interned once,
  /// SetId = dense first-appearance index. Sets are never physically
  /// removed (their spans are immutable arena runs); a set with
  /// count 0 is simply dead and revives in place if churn brings its
  /// witnesses back. `live_sets_` counts the non-empty sets with
  /// support > 0; `empty_set_id_` is the interned empty set (its count
  /// is the number of unbreakable witnesses), -1 until one is seen.
  SpanArena<TupleId> family_arena_;
  std::vector<int> dense_pool_;  // arena pool mirrored in dense ids
  std::vector<SetState> set_states_;  // indexed by SetId
  int64_t live_sets_ = 0;
  int32_t empty_set_id_ = -1;

  /// Grow-only dense id space over every endogenous tuple ever seen in
  /// a set; ids of deleted tuples go stale harmlessly.
  std::unordered_map<TupleId, int, TupleIdHash> dense_ids_;
  std::vector<TupleId> dense_tuples_;

  /// The current decomposition: label -> component record, where a
  /// component's label is its minimum dense element id (so a label
  /// always identifies the unique live component containing that
  /// element), plus the per-element labels. `comp_label_` entries of
  /// elements that dropped out of every set go stale; they are only
  /// ever used to locate components to dissolve, and a stale label at
  /// worst dissolves (and faithfully rebuilds) an extra component.
  std::unordered_map<int, Component> components_;
  std::vector<int> comp_label_;

  // Running totals over `components_`.
  int total_size_ = 0;
  int total_lower_ = 0;
  int unproven_components_ = 0;

  // Epoch-scoped affected region, collected by TouchSet: labels of
  // components that lost or gained... (gained = via fresh sets whose
  // elements carry these labels), and the fresh SetIds themselves
  // (-1 = died again within the epoch).
  std::vector<int> affected_labels_;
  std::vector<int32_t> fresh_sets_;

  // Scratch reused across refreshes (slots are reset after each use, so
  // the array stays clean between epochs and only grows with the
  // universe). Dropped by EvictColdState, re-grown on demand.
  std::vector<int> global_to_local_;

  bool poisoned_ = false;  // witness budget tripped; family incomplete
  std::string poison_error_;

  uint64_t evictions_ = 0;
  uint64_t rebuilds_ = 0;

  int epoch_count_ = 0;
  EpochOutcome last_;
};

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_INCREMENTAL_H_
