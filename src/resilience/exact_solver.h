#ifndef RESCQ_RESILIENCE_EXACT_SOLVER_H_
#define RESCQ_RESILIENCE_EXACT_SOLVER_H_

#include <cstdint>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "db/witness.h"
#include "resilience/result.h"
#include "util/span_arena.h"

namespace rescq {

/// Arena-backed hitting-set instance: every set is a SetSpan into one
/// pool of non-negative element ids. This is the native input of the
/// exact solver — reduction, component split, and branch-and-bound all
/// operate on the spans directly, so a family collected into an arena
/// (WitnessFamily, the incremental support family) reaches the search
/// without ever being copied into per-set vectors.
struct HittingSetFamily {
  std::vector<int> pool;
  std::vector<SetSpan> sets;

  void Add(const int* data, size_t n) {
    SetSpan span{static_cast<uint32_t>(pool.size()),
                 static_cast<uint32_t>(n)};
    pool.insert(pool.end(), data, data + n);
    sets.push_back(span);
  }
  void Add(const std::vector<int>& s) { Add(s.data(), s.size()); }

  size_t size() const { return sets.size(); }
  bool empty() const { return sets.empty(); }
  const int* begin(size_t i) const { return pool.data() + sets[i].offset; }
  const int* end(size_t i) const { return begin(i) + sets[i].len; }
  size_t len(size_t i) const { return sets[i].len; }

  static HittingSetFamily From(const std::vector<std::vector<int>>& sets) {
    HittingSetFamily f;
    f.sets.reserve(sets.size());
    for (const std::vector<int>& s : sets) f.Add(s);
    return f;
  }
};

/// Budgets for the exact resilience path. The defaults are unbounded —
/// the solver is then the reference oracle. With a budget set the solve
/// stays safe but may stop early; see ExactStats for how that surfaces.
struct ExactOptions {
  /// Maximum raw witnesses enumerated (kNoWitnessLimit = all). When
  /// exceeded the witness family is incomplete, the returned result is
  /// the default (resilience 0) and ExactStats::witness_budget_exceeded
  /// is set — never a silently truncated answer.
  size_t witness_limit = kNoWitnessLimit;
  /// Maximum branch-and-bound nodes across all components (0 =
  /// unlimited). When exhausted, the incumbent is returned: a valid
  /// hitting set / contingency set that may not be minimum
  /// (HittingSetResult::proven_optimal false,
  /// ExactStats::node_budget_exceeded set). With solver_threads > 1 the
  /// budget is shared by all workers: one worker tripping it stops the
  /// others, and the node count may overshoot by at most one node per
  /// worker. A budgeted parallel solve is the one place scheduling can
  /// show: which nodes fit under the shared budget — and therefore the
  /// counters and the returned incumbent — may vary run to run.
  uint64_t node_budget = 0;
  /// Workers for the per-component branch-and-bound fan-out (<= 1 =
  /// serial, the default). Components share no elements, so each one is
  /// solved by exactly one worker as a pure function of the component
  /// with its own counter slot; the slots are merged in partition
  /// order. Every output — the resilience value, the chosen set, and
  /// the nodes / packing_prunes / flow_prunes counters — is therefore
  /// byte-identical across any thread count and identical to the
  /// serial path (un-budgeted; see node_budget for the exception).
  int solver_threads = 1;
};

/// Search counters reported by the exact path. Monotone within one
/// solve; merged across components (and across the engine's per-plan
/// component solves).
struct ExactStats {
  size_t witnesses = 0;       // raw witnesses visited
  size_t witness_sets = 0;    // distinct endogenous tuple-sets
  int components = 0;         // independent hitting-set components
  uint64_t nodes = 0;         // branch-and-bound nodes expanded
  uint64_t packing_prunes = 0;  // subtrees cut by the greedy packing bound
  uint64_t flow_prunes = 0;     // subtrees cut by the max-flow bound
  bool witness_budget_exceeded = false;
  bool node_budget_exceeded = false;

  void Merge(const ExactStats& other);
};

/// Result of a minimum hitting set computation.
struct HittingSetResult {
  int size = 0;
  std::vector<int> chosen;  // element ids
  /// False when the node budget stopped the search: `chosen` still hits
  /// every set but may not be minimum.
  bool proven_optimal = true;
};

/// Exact minimum hitting set via branch and bound:
///  - supersets of other sets are discarded, duplicates collapse, and
///    dominated elements (every set containing b also contains a) are
///    deleted, iterated to fixpoint — q_vc-style families reduce to
///    pure vertex cover here,
///  - the instance splits into connected components (sets sharing no
///    element are independent) solved separately,
///  - singleton sets force their element,
///  - branching picks the smallest open set and tries each element,
///  - lower bounds: greedy packing of pairwise-disjoint open sets, then
///    (when that fails to prune) a max-flow bound — the LP-dual
///    fractional matching over the open size-2 sets, computed as half
///    the maximum matching of the bipartite double cover, stacked on a
///    disjoint packing of the larger sets,
///  - upper bound: greedy max-frequency hitting seeds the incumbent.
/// Every set must be non-empty, of non-negative element ids. `stats`
/// may be null. This is the one hitting-set solver: the engine's exact
/// path and every incremental epoch's re-solve run through it.
HittingSetResult SolveMinHittingSet(const HittingSetFamily& family,
                                    const ExactOptions& options = {},
                                    ExactStats* stats = nullptr);

/// Root-level lower bound on the minimum hitting set of `family`,
/// without searching: the family is reduced exactly as
/// SolveMinHittingSet would (dedup / supersets / element domination to
/// fixpoint, all value-preserving) and the branch-and-bound's packing
/// and fractional-matching flow bounds are evaluated once at the root.
/// Always <= SolveMinHittingSet(family).size; 0 for an empty family.
/// Incremental sessions use it to certify the components of an epoch
/// whose re-solve a node budget stopped.
int HittingSetLowerBound(const HittingSetFamily& family);

/// Exact resilience of q over the active tuples of db: stream witnesses
/// (deduplicating their endogenous tuple-sets on the fly), then solve
/// minimum hitting set over the family. Works for every conjunctive
/// query; exponential worst case.
ResilienceResult ComputeResilienceExact(const Query& q, const Database& db);

/// As above with budgets and counters. `stats` may be null. When the
/// witness budget is exceeded the result is the default (resilience 0)
/// and must not be used — check stats->witness_budget_exceeded.
ResilienceResult ComputeResilienceExact(const Query& q, const Database& db,
                                        const ExactOptions& options,
                                        ExactStats* stats);

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_EXACT_SOLVER_H_
