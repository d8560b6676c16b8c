#include "resilience/exact_solver.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>

#include "flow/max_flow.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/disjoint_set.h"
#include "util/parallel.h"

namespace rescq {

void ExactStats::Merge(const ExactStats& other) {
  witnesses += other.witnesses;
  witness_sets += other.witness_sets;
  components += other.components;
  nodes += other.nodes;
  packing_prunes += other.packing_prunes;
  flow_prunes += other.flow_prunes;
  witness_budget_exceeded = witness_budget_exceeded ||
                            other.witness_budget_exceeded;
  node_budget_exceeded = node_budget_exceeded || other.node_budget_exceeded;
}

namespace {

using Family = HittingSetFamily;

// Node-budget state shared by all components of one solve — and, when
// components fan out to a worker pool, by all workers at once, so its
// fields are atomics. Relaxed ordering suffices: the budget only gates
// a heuristic cutoff, never publishes data between threads. Once it
// trips, every further Search() on any worker returns immediately and
// the incumbents (seeded by the greedy upper bounds, so always
// feasible) stand as the answer. Under contention the taken count may
// overshoot the limit by at most one per worker (each worker checks,
// then increments). With no budget set (limit 0, the default) the
// atomics are never touched at all.
struct NodeBudget {
  uint64_t limit = 0;  // 0 = unlimited
  std::atomic<uint64_t> taken{0};
  std::atomic<bool> exceeded{false};
};

// Per-component search counters. Exactly one worker owns a component,
// so the counters are plain integers: summing them in partition order
// afterwards makes ExactStats byte-identical at any thread count —
// there is no shared mutable reporting state for schedules to race on.
// Only the budget (when set) crosses components.
struct SearchCtx {
  NodeBudget* budget = nullptr;
  uint64_t nodes = 0;
  uint64_t packing_prunes = 0;
  uint64_t flow_prunes = 0;

  bool TakeNode() {
    if (budget->limit != 0) {
      if (budget->taken.load(std::memory_order_relaxed) >= budget->limit) {
        budget->exceeded.store(true, std::memory_order_relaxed);
        return false;
      }
      budget->taken.fetch_add(1, std::memory_order_relaxed);
    }
    ++nodes;
    return true;
  }

  bool BudgetExceeded() const {
    return budget->limit != 0 &&
           budget->exceeded.load(std::memory_order_relaxed);
  }
};

// Below this many residual edges a Dinic run costs more than the nodes
// it could prune — the greedy bounds and the eager reductions already
// dispatch such instances in a handful of nodes.
constexpr size_t kFlowBoundMinEdges = 8;

// The flow bound also waits until the component's search has expanded
// this many nodes: a component that finishes earlier was never going to
// repay a Dinic run per node, while a search still alive past the
// threshold is exactly where the stronger bound cuts whole subtrees.
// The gate reads the component-local counter, so whether it fires never
// depends on sibling components or on the worker schedule.
constexpr uint64_t kFlowBoundMinNodes = 32;

// LP-dual lower bound over size-2 sets: a maximum *fractional* matching
// of the graph they form is dual-feasible for the hitting-set LP, so its
// value bounds any hitting set of those edges from below. Its value is
// half the maximum integral matching of the bipartite double cover
// (each vertex split into a left and a right copy, each edge doubled),
// which Dinic computes directly — no blossom needed. Returns the ceiling,
// which is still a valid bound because hitting sets are integral.
int FractionalMatchingBound(const std::vector<std::pair<int, int>>& edges,
                            int max_id) {
  if (edges.empty()) return 0;
  std::vector<int> dense(static_cast<size_t>(max_id), -1);
  int k = 0;
  for (const auto& [a, b] : edges) {
    if (dense[static_cast<size_t>(a)] < 0) dense[static_cast<size_t>(a)] = k++;
    if (dense[static_cast<size_t>(b)] < 0) dense[static_cast<size_t>(b)] = k++;
  }
  MaxFlow flow(2 + 2 * k);
  const int s = 0, t = 1;
  for (int i = 0; i < k; ++i) {
    flow.AddEdge(s, 2 + i, 1);
    flow.AddEdge(2 + k + i, t, 1);
  }
  for (const auto& [a, b] : edges) {
    int ia = dense[static_cast<size_t>(a)];
    int ib = dense[static_cast<size_t>(b)];
    flow.AddEdge(2 + ia, 2 + k + ib, 1);
    flow.AddEdge(2 + ib, 2 + k + ia, 1);
  }
  int64_t f = flow.Compute(s, t);
  return static_cast<int>((f + 1) / 2);
}

int MaxElementPlusOne(const Family& f) {
  int num_elements = 0;
  for (size_t i = 0; i < f.size(); ++i) {
    for (const int* p = f.begin(i); p != f.end(i); ++p) {
      num_elements = std::max(num_elements, *p + 1);
    }
  }
  return num_elements;
}

// Sorts every span in place, deduplicates the family, and drops
// supersets (hitting a subset hits all of its supersets). Output spans
// are size-ascending; the pool is shared and never copied — dedup
// inside a span just shrinks its len, leaving a dead gap the family's
// lifetime amortizes away. This runs twice per solve (around the
// reduction fixpoint), so it must not allocate per set.
Family ReduceFamily(Family f) {
  for (SetSpan& s : f.sets) {
    RESCQ_CHECK(s.len > 0);
    int* b = f.pool.data() + s.offset;
    std::sort(b, b + s.len);
    s.len = static_cast<uint32_t>(std::unique(b, b + s.len) - b);
  }
  const int* pool = f.pool.data();
  std::sort(f.sets.begin(), f.sets.end(), [pool](SetSpan a, SetSpan b) {
    if (a.len != b.len) return a.len < b.len;
    return std::lexicographical_compare(pool + a.offset,
                                        pool + a.offset + a.len,
                                        pool + b.offset,
                                        pool + b.offset + b.len);
  });
  f.sets.erase(std::unique(f.sets.begin(), f.sets.end(),
                           [pool](SetSpan a, SetSpan b) {
                             return a.len == b.len &&
                                    std::equal(pool + a.offset,
                                               pool + a.offset + a.len,
                                               pool + b.offset);
                           }),
               f.sets.end());
  // A kept set t that is a proper subset of s contains its minimum
  // element, which then lies in s: kept sets are chained by their
  // minimum element, so s is only checked against the chains of its
  // own elements.
  std::vector<int> first_head(static_cast<size_t>(MaxElementPlusOne(f)), -1);
  std::vector<int> first_next;
  std::vector<SetSpan> out;
  out.reserve(f.sets.size());
  first_next.reserve(f.sets.size());
  for (SetSpan s : f.sets) {
    bool has_subset = false;
    for (const int* e = pool + s.offset;
         !has_subset && e != pool + s.offset + s.len; ++e) {
      for (int k = first_head[static_cast<size_t>(*e)]; k >= 0;
           k = first_next[static_cast<size_t>(k)]) {
        const SetSpan t = out[static_cast<size_t>(k)];
        if (t.len < s.len &&
            std::includes(pool + s.offset, pool + s.offset + s.len,
                          pool + t.offset, pool + t.offset + t.len)) {
          has_subset = true;
          break;
        }
      }
    }
    if (has_subset) continue;
    int& head = first_head[static_cast<size_t>(pool[s.offset])];
    first_next.push_back(head);
    head = static_cast<int>(out.size());
    out.push_back(s);
  }
  f.sets = std::move(out);
  return f;
}

// CSR element -> set-id lists: offsets[e]..offsets[e+1] indexes `flat`.
// Filled in ascending set order, so every per-element list is sorted —
// the same sequences per-element push_back produced.
struct ElementSets {
  std::vector<int> offsets;
  std::vector<int> flat;

  void Build(const Family& f, int num_elements) {
    offsets.assign(static_cast<size_t>(num_elements) + 1, 0);
    for (size_t i = 0; i < f.size(); ++i) {
      for (const int* p = f.begin(i); p != f.end(i); ++p) {
        ++offsets[static_cast<size_t>(*p) + 1];
      }
    }
    for (size_t e = 0; e < static_cast<size_t>(num_elements); ++e) {
      offsets[e + 1] += offsets[e];
    }
    flat.resize(static_cast<size_t>(offsets[static_cast<size_t>(
        num_elements)]));
    std::vector<int> pos(offsets.begin(), offsets.end() - 1);
    for (size_t i = 0; i < f.size(); ++i) {
      for (const int* p = f.begin(i); p != f.end(i); ++p) {
        flat[static_cast<size_t>(pos[static_cast<size_t>(*p)]++)] =
            static_cast<int>(i);
      }
    }
  }

  const int* begin(int e) const {
    return flat.data() + offsets[static_cast<size_t>(e)];
  }
  const int* end(int e) const {
    return flat.data() + offsets[static_cast<size_t>(e) + 1];
  }
  int count(int e) const {
    return offsets[static_cast<size_t>(e) + 1] -
           offsets[static_cast<size_t>(e)];
  }
};

// State for the branch-and-bound search. Sets are spans into the
// component's pool; "open" sets are those not yet hit by the current
// partial choice.
struct Solver {
  Family family;
  ElementSets element_sets;
  int num_elements = 0;
  SearchCtx* ctx = nullptr;

  std::vector<int> hit_count;    // per set: #chosen elements in it
  std::vector<bool> chosen;      // per element
  std::vector<int> current;      // chosen stack
  std::vector<int> best;
  int best_size = 0;

  // For families that are already sorted, deduplicated, and subset-free
  // (per-component slices of a globally reduced family).
  void InitReduced(Family reduced) {
    family = std::move(reduced);
    num_elements = MaxElementPlusOne(family);
    element_sets.Build(family, num_elements);
    hit_count.assign(family.size(), 0);
    chosen.assign(static_cast<size_t>(num_elements), false);
  }

  void Choose(int e) {
    chosen[static_cast<size_t>(e)] = true;
    current.push_back(e);
    for (const int* s = element_sets.begin(e); s != element_sets.end(e);
         ++s) {
      ++hit_count[static_cast<size_t>(*s)];
    }
  }

  void Unchoose(int e) {
    chosen[static_cast<size_t>(e)] = false;
    current.pop_back();
    for (const int* s = element_sets.begin(e); s != element_sets.end(e);
         ++s) {
      --hit_count[static_cast<size_t>(*s)];
    }
  }

  // Greedy upper bound: repeatedly pick the element hitting the most open
  // sets. Also used to initialize `best`.
  void GreedyUpperBound() {
    std::vector<bool> open(family.size(), true);
    size_t open_count = 0;
    for (size_t i = 0; i < family.size(); ++i) {
      open[i] = hit_count[i] == 0;
      open_count += open[i] ? 1 : 0;
    }
    std::vector<int> greedy = current;
    std::vector<int> freq(static_cast<size_t>(num_elements), 0);
    while (open_count > 0) {
      std::fill(freq.begin(), freq.end(), 0);
      for (size_t i = 0; i < family.size(); ++i) {
        if (!open[i]) continue;
        for (const int* p = family.begin(i); p != family.end(i); ++p) {
          ++freq[static_cast<size_t>(*p)];
        }
      }
      int best_e = 0;
      for (int e = 1; e < num_elements; ++e) {
        if (freq[static_cast<size_t>(e)] > freq[static_cast<size_t>(best_e)]) {
          best_e = e;
        }
      }
      greedy.push_back(best_e);
      for (const int* s = element_sets.begin(best_e);
           s != element_sets.end(best_e); ++s) {
        if (open[static_cast<size_t>(*s)]) {
          open[static_cast<size_t>(*s)] = false;
          --open_count;
        }
      }
    }
    if (best.empty() || static_cast<int>(greedy.size()) < best_size) {
      best = greedy;
      best_size = static_cast<int>(greedy.size());
    }
  }

  // Greedily packs pairwise element-disjoint open sets (skipping 2-sets
  // when `skip_pairs`), marking their elements in `used`; returns how
  // many it packed. Smaller sets first makes the packing larger on
  // average; sets are globally sorted by size already (the reduction
  // sorts before superset removal; removal preserves order).
  int PackDisjointOpenSets(bool skip_pairs, std::vector<bool>& used) const {
    used.assign(static_cast<size_t>(num_elements), false);
    int packed = 0;
    for (size_t i = 0; i < family.size(); ++i) {
      if (hit_count[i] > 0) continue;
      if (skip_pairs && family.len(i) == 2) continue;
      bool disjoint = true;
      for (const int* p = family.begin(i); p != family.end(i); ++p) {
        if (used[static_cast<size_t>(*p)]) disjoint = false;
      }
      if (!disjoint) continue;
      ++packed;
      for (const int* p = family.begin(i); p != family.end(i); ++p) {
        used[static_cast<size_t>(*p)] = true;
      }
    }
    return packed;
  }

  // Lower bound on additional elements: each packed open set needs a
  // distinct element.
  int PackingLowerBound() const {
    std::vector<bool> used;
    return PackDisjointOpenSets(/*skip_pairs=*/false, used);
  }

  // Stronger lower bound: disjoint-pack the open sets of size != 2, then
  // add the fractional-matching dual over the open 2-sets that avoid the
  // packed elements. Dual-feasible for the hitting-set LP (each element
  // is claimed by at most one packed set or by the matching, never
  // both), so it is a valid bound; it beats pure packing whenever the
  // 2-sets form odd structures the greedy can only half-use.
  int FlowLowerBound() const {
    std::vector<bool> used;
    const int packed = PackDisjointOpenSets(/*skip_pairs=*/true, used);
    std::vector<std::pair<int, int>> edges;
    for (size_t i = 0; i < family.size(); ++i) {
      if (hit_count[i] > 0 || family.len(i) != 2) continue;
      int a = family.begin(i)[0], b = family.begin(i)[1];
      if (used[static_cast<size_t>(a)] || used[static_cast<size_t>(b)]) {
        continue;
      }
      edges.emplace_back(a, b);
    }
    if (edges.size() < kFlowBoundMinEdges) {
      return packed;  // skip the Dinic run, keep the packing just computed
    }
    return packed + FractionalMatchingBound(edges, num_elements);
  }

  // Finds the open set with the fewest elements; -1 if none.
  int PickBranchSet() {
    int best_set = -1;
    size_t best_sz = ~size_t{0};
    for (size_t i = 0; i < family.size(); ++i) {
      if (hit_count[i] > 0) continue;
      if (family.len(i) < best_sz) {
        best_sz = family.len(i);
        best_set = static_cast<int>(i);
        if (best_sz == 1) break;
      }
    }
    return best_set;
  }

  void Search() {
    if (!ctx->TakeNode()) return;
    int branch_set = PickBranchSet();
    if (branch_set < 0) {
      if (static_cast<int>(current.size()) < best_size) {
        best = current;
        best_size = static_cast<int>(current.size());
      }
      return;
    }
    int lb = PackingLowerBound();
    if (static_cast<int>(current.size()) + lb >= best_size) {
      ++ctx->packing_prunes;
      return;
    }
    // The flow bound costs a Dinic run, so it only fires where the cheap
    // packing bound failed to prune and the search is demonstrably
    // non-trivial — exactly the nodes worth cutting.
    if (ctx->nodes >= kFlowBoundMinNodes) {
      int flow_lb = FlowLowerBound();
      if (flow_lb > lb &&
          static_cast<int>(current.size()) + flow_lb >= best_size) {
        ++ctx->flow_prunes;
        return;
      }
    }

    // Branch over the elements of the smallest open set, most-frequent
    // first.
    std::vector<int> elems(family.begin(static_cast<size_t>(branch_set)),
                           family.end(static_cast<size_t>(branch_set)));
    std::sort(elems.begin(), elems.end(), [&](int a, int b) {
      return element_sets.count(a) > element_sets.count(b);
    });
    for (int e : elems) {
      Choose(e);
      Search();
      Unchoose(e);
      if (ctx->BudgetExceeded()) return;
    }
  }
};

// Specialized exact vertex cover for the all-sets-size-<=2 case (graph
// instances; the hardness gadgets produce exactly these). Classic branch
// and bound: eager degree-0/1 reductions, branching "v in cover" vs
// "N(v) in cover" on a maximum-degree vertex, a greedy-matching lower
// bound backed by the fractional-matching flow bound, and a max-degree
// greedy cover seeding the incumbent. Cycles and trees collapse under
// the reductions, which is what the paper's variable gadgets are made of.
//
// The graph is built once as CSR neighbour lists (each ascending) and
// never copied: taking a vertex into the cover only marks it taken and
// decrements its live neighbours' degrees. An edge is live while neither
// endpoint is taken. `cover` doubles as the undo trail — every taken
// vertex is on it, in take order — so a branch backtracks by popping it
// back to the size it had on entry.
struct VcSolver {
  std::vector<int> offsets;     // CSR: offsets[v]..offsets[v+1] in `nbrs`
  std::vector<int> nbrs;        // ascending per vertex
  std::vector<int> degree;      // live degree; 0 once taken
  std::vector<uint8_t> taken;   // per vertex
  SearchCtx* ctx = nullptr;
  std::vector<int> cover;   // current partial cover, and the undo trail
  std::vector<int> best;
  size_t best_size = ~size_t{0};
  // Scratch reused by every node's bounds.
  std::vector<uint8_t> matched;
  std::vector<std::pair<int, int>> edges;

  size_t num_vertices() const { return degree.size(); }
  const int* begin(size_t v) const { return nbrs.data() + offsets[v]; }
  const int* end(size_t v) const { return nbrs.data() + offsets[v + 1]; }

  void TakeVertex(int v) {
    const size_t vi = static_cast<size_t>(v);
    cover.push_back(v);
    taken[vi] = 1;
    degree[vi] = 0;
    for (const int* u = begin(vi); u != end(vi); ++u) {
      if (!taken[static_cast<size_t>(*u)]) --degree[static_cast<size_t>(*u)];
    }
  }

  // Pops the trail back to `size`, restoring every popped vertex's edges.
  void UndoTo(size_t size) {
    while (cover.size() > size) {
      const size_t vi = static_cast<size_t>(cover.back());
      cover.pop_back();
      taken[vi] = 0;
      for (const int* u = begin(vi); u != end(vi); ++u) {
        if (taken[static_cast<size_t>(*u)]) continue;
        ++degree[static_cast<size_t>(*u)];
        ++degree[vi];
      }
    }
  }

  void Reduce() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t v = 0; v < num_vertices(); ++v) {
        if (degree[v] != 1) continue;
        const int* u = begin(v);
        while (taken[static_cast<size_t>(*u)]) ++u;
        TakeVertex(*u);
        changed = true;
      }
    }
  }

  // The lowest-numbered vertex of maximum live degree; -1 if no edge is
  // left.
  int MaxDegreeVertex() const {
    int v = -1;
    int max_deg = 0;
    for (size_t u = 0; u < num_vertices(); ++u) {
      if (degree[u] > max_deg) {
        max_deg = degree[u];
        v = static_cast<int>(u);
      }
    }
    return v;
  }

  // Max-degree greedy cover: seeds `best` so that pruning bites from the
  // first search node and a budget-stopped search still holds a feasible
  // answer.
  void GreedySeed() {
    for (int v = MaxDegreeVertex(); v >= 0; v = MaxDegreeVertex()) {
      TakeVertex(v);
    }
    best = cover;
    best_size = cover.size();
    UndoTo(0);
  }

  size_t MatchingLowerBound() {
    matched.assign(num_vertices(), 0);
    size_t matching = 0;
    for (size_t v = 0; v < num_vertices(); ++v) {
      if (taken[v] || matched[v]) continue;
      for (const int* u = begin(v); u != end(v); ++u) {
        const size_t ui = static_cast<size_t>(*u);
        if (!taken[ui] && !matched[ui]) {
          matched[v] = 1;
          matched[ui] = 1;
          ++matching;
          break;
        }
      }
    }
    return matching;
  }

  // Fractional matching over the remaining edges (see
  // FractionalMatchingBound): exact on bipartite residuals by König, and
  // gains the +1/2-per-odd-component the greedy matching leaves behind.
  size_t FlowLowerBound() {
    edges.clear();
    for (size_t v = 0; v < num_vertices(); ++v) {
      if (taken[v]) continue;
      for (const int* u = begin(v); u != end(v); ++u) {
        if (*u > static_cast<int>(v) && !taken[static_cast<size_t>(*u)]) {
          edges.emplace_back(static_cast<int>(v), *u);
        }
      }
    }
    if (edges.size() < kFlowBoundMinEdges) return 0;  // not worth a Dinic run
    return static_cast<size_t>(
        FractionalMatchingBound(edges, static_cast<int>(num_vertices())));
  }

  void Search() {
    if (!ctx->TakeNode()) return;
    Reduce();
    const int branch = MaxDegreeVertex();
    if (branch < 0) {
      if (cover.size() < best_size) {
        best = cover;
        best_size = cover.size();
      }
      return;
    }
    size_t lb = MatchingLowerBound();
    if (cover.size() + lb >= best_size) {
      ++ctx->packing_prunes;
      return;
    }
    if (ctx->nodes >= kFlowBoundMinNodes) {
      size_t flow_lb = FlowLowerBound();
      if (flow_lb > lb && cover.size() + flow_lb >= best_size) {
        ++ctx->flow_prunes;
        return;
      }
    }

    const size_t saved_cover = cover.size();
    // Branch 1: v in the cover.
    TakeVertex(branch);
    Search();
    UndoTo(saved_cover);
    if (ctx->BudgetExceeded()) return;
    // Branch 2: all neighbors of v in the cover. Only the neighbour being
    // taken changes state, so the live test still sees the list as it
    // was on entry.
    const size_t bi = static_cast<size_t>(branch);
    for (const int* u = begin(bi); u != end(bi); ++u) {
      if (!taken[static_cast<size_t>(*u)]) TakeVertex(*u);
    }
    Search();
    UndoTo(saved_cover);
  }
};

// A vertex-cover component split into its solver and the elements the
// singleton sets force: the forced part needs no search.
struct VcInstance {
  VcSolver vc;
  std::vector<int> forced;  // ascending element ids forced by 1-sets
};

// Builds the cover instance for one component; every span must have
// size 1 or 2 (deduplicated, so no edge repeats). Edges touching a
// forced element are already hit and stay out of the graph.
VcInstance BuildVcInstance(const Family& f, int num_elements) {
  const size_t n = static_cast<size_t>(num_elements);
  std::vector<bool> forced(n, false);
  for (size_t i = 0; i < f.size(); ++i) {
    if (f.len(i) == 1) forced[static_cast<size_t>(f.begin(i)[0])] = true;
  }
  auto is_edge = [&](size_t i) {
    return f.len(i) == 2 && !forced[static_cast<size_t>(f.begin(i)[0])] &&
           !forced[static_cast<size_t>(f.begin(i)[1])];
  };
  VcInstance inst;
  VcSolver& vc = inst.vc;
  vc.degree.assign(n, 0);
  for (size_t i = 0; i < f.size(); ++i) {
    if (!is_edge(i)) continue;
    ++vc.degree[static_cast<size_t>(f.begin(i)[0])];
    ++vc.degree[static_cast<size_t>(f.begin(i)[1])];
  }
  vc.offsets.assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    vc.offsets[v + 1] = vc.offsets[v] + vc.degree[v];
  }
  vc.nbrs.resize(static_cast<size_t>(vc.offsets[n]));
  std::vector<int> pos(vc.offsets.begin(), vc.offsets.end() - 1);
  for (size_t i = 0; i < f.size(); ++i) {
    if (!is_edge(i)) continue;
    const int a = f.begin(i)[0], b = f.begin(i)[1];
    vc.nbrs[static_cast<size_t>(pos[static_cast<size_t>(a)]++)] = b;
    vc.nbrs[static_cast<size_t>(pos[static_cast<size_t>(b)]++)] = a;
  }
  for (size_t v = 0; v < n; ++v) {
    std::sort(vc.nbrs.begin() + vc.offsets[v],
              vc.nbrs.begin() + vc.offsets[v + 1]);
  }
  vc.taken.assign(n, 0);
  for (int e = 0; e < num_elements; ++e) {
    if (forced[static_cast<size_t>(e)]) inst.forced.push_back(e);
  }
  return inst;
}

// Solves one hitting-set component as vertex cover; every span must have
// size 1 or 2 (deduplicated). Singleton sets are forced.
std::vector<int> SolveAsVertexCover(const Family& f, int num_elements,
                                    SearchCtx* ctx) {
  VcInstance inst = BuildVcInstance(f, num_elements);
  inst.vc.ctx = ctx;
  inst.vc.GreedySeed();
  inst.vc.Search();
  std::vector<int> chosen = inst.vc.best;
  chosen.insert(chosen.end(), inst.forced.begin(), inst.forced.end());
  return chosen;
}

// Solves one general component with the branch-and-bound solver. The
// component's spans are already reduced (slices of the global fixpoint).
std::vector<int> SolveComponent(Family f, SearchCtx* ctx) {
  Solver solver;
  solver.ctx = ctx;
  solver.InitReduced(std::move(f));
  solver.best_size = 1 << 30;
  solver.GreedyUpperBound();
  solver.Search();
  return solver.best;
}

// Reduction fixpoint shared by the solve and the root bound. Three
// value-preserving rules apply until none does:
//  - duplicate sets collapse and supersets go (hitting a subset hits
//    all of its supersets);
//  - element domination: if every set containing b also contains some
//    a != b, a minimum hitting set never needs b (any solution using b
//    can swap it for a), so b is deleted. Identical memberships break
//    toward the smaller id. On the
//    q_vc witness families this strips the per-edge S-tuples (each
//    private to one set that also holds both endpoint R-tuples) and
//    leaves a pure vertex-cover instance the matching bounds are exact
//    on. Sets stay non-empty: a set that loses b still holds a.
// One ReduceFamily and one incidence build, then a work-list pass:
// every element is checked for domination once, and afterwards only
// what an earlier step can have changed is re-checked. A set that lost
// an element may now be a subset of (or equal to) another live set, so
// the live sets through its rarest element are tested as supersets. An
// element whose live incidence shrank (a set holding it died) may now
// be dominated. Nothing else can create new work: deleting b changes
// no other element's membership, and a set only becomes a superset of
// another by that other set shrinking. The live sets then get one final
// ReduceFamily for the canonical size-ascending order.
Family ReduceToFixpoint(Family f) {
  f = ReduceFamily(std::move(f));
  const int num_elements = MaxElementPlusOne(f);
  ElementSets element_sets;
  element_sets.Build(f, num_elements);
  std::vector<int> live(static_cast<size_t>(num_elements));  // sets per e
  for (int e = 0; e < num_elements; ++e) {
    live[static_cast<size_t>(e)] = element_sets.count(e);
  }
  std::vector<bool> dead(f.size(), false);
  // Every element starts queued; a set is queued each time it shrinks.
  std::vector<int> element_queue(static_cast<size_t>(num_elements));
  std::iota(element_queue.begin(), element_queue.end(), 0);
  std::vector<bool> element_queued(static_cast<size_t>(num_elements), true);
  std::vector<int> shrunk;

  auto kill = [&](int t) {
    dead[static_cast<size_t>(t)] = true;
    for (const int* p = f.begin(static_cast<size_t>(t));
         p != f.end(static_cast<size_t>(t)); ++p) {
      --live[static_cast<size_t>(*p)];
      if (!element_queued[static_cast<size_t>(*p)]) {
        element_queued[static_cast<size_t>(*p)] = true;
        element_queue.push_back(*p);
      }
    }
  };
  // s lost an element: drop every other live set that now contains it.
  auto drop_supersets = [&](int s) {
    const size_t si = static_cast<size_t>(s);
    const int* rarest = std::min_element(
        f.begin(si), f.end(si), [&](int a, int b) {
          return live[static_cast<size_t>(a)] < live[static_cast<size_t>(b)];
        });
    for (const int* t = element_sets.begin(*rarest);
         t != element_sets.end(*rarest); ++t) {
      const size_t ti = static_cast<size_t>(*t);
      if (*t == s || dead[ti] || f.len(ti) < f.len(si)) continue;
      if (std::includes(f.begin(ti), f.end(ti), f.begin(si), f.end(si))) {
        kill(*t);
      }
    }
  };
  // Deletes b if some element sits in every live set holding b. A
  // dominator lies in the first of them, so only its elements are
  // candidates.
  auto drop_if_dominated = [&](int b) {
    const size_t bi = static_cast<size_t>(b);
    if (live[bi] == 0) return;
    const int* first = element_sets.begin(b);
    const int* sb_end = element_sets.end(b);
    while (dead[static_cast<size_t>(*first)]) ++first;
    for (const int* p = f.begin(static_cast<size_t>(*first));
         p != f.end(static_cast<size_t>(*first)); ++p) {
      const int a = *p;
      const size_t ai = static_cast<size_t>(a);
      if (a == b || live[ai] < live[bi]) continue;
      if (live[ai] == live[bi] && a > b) continue;  // keep the smaller id
      bool dominates = true;
      for (const int* t = first; dominates && t != sb_end; ++t) {
        const size_t ti = static_cast<size_t>(*t);
        dominates =
            dead[ti] || std::binary_search(f.begin(ti), f.end(ti), a);
      }
      if (!dominates) continue;
      for (const int* t = first; t != sb_end; ++t) {
        const size_t ti = static_cast<size_t>(*t);
        if (dead[ti]) continue;
        int* begin = f.pool.data() + f.sets[ti].offset;
        f.sets[ti].len = static_cast<uint32_t>(
            std::remove(begin, begin + f.sets[ti].len, b) - begin);
        shrunk.push_back(*t);
      }
      live[bi] = 0;
      return;
    }
  };

  // Shrunk sets first, so every domination check sees a superset-free
  // family. Nothing dies unless something shrank.
  size_t next_set = 0, next_element = 0;
  while (next_set < shrunk.size() || next_element < element_queue.size()) {
    if (next_set < shrunk.size()) {
      const int s = shrunk[next_set++];
      if (!dead[static_cast<size_t>(s)]) drop_supersets(s);
    } else {
      const int b = element_queue[next_element++];
      element_queued[static_cast<size_t>(b)] = false;
      drop_if_dominated(b);
    }
  }
  if (shrunk.empty()) return f;
  size_t kept = 0;
  for (size_t i = 0; i < f.size(); ++i) {
    if (!dead[i]) f.sets[kept++] = f.sets[i];
  }
  f.sets.resize(kept);
  return ReduceFamily(std::move(f));
}

}  // namespace

int HittingSetLowerBound(const HittingSetFamily& family) {
  if (family.empty()) return 0;
  Solver solver;  // ctx stays null: the root bounds never take a node
  solver.InitReduced(ReduceToFixpoint(family));
  // Both bounds with nothing chosen yet (every set open); the flow bound
  // subsumes the packing one only on 2-set-heavy families, so take the
  // max.
  return std::max(solver.PackingLowerBound(), solver.FlowLowerBound());
}

HittingSetResult SolveMinHittingSet(const HittingSetFamily& family,
                                    const ExactOptions& options,
                                    ExactStats* stats) {
  HittingSetResult result;
  if (family.empty()) return result;

  // Global reduction to fixpoint, then split into connected components
  // over shared elements: two sets with no element in common constrain
  // disjoint parts of the universe, so the minimum hitting set is the
  // concatenation of per-component minima. Components shrink the
  // branching factor *and* let small parts finish instantly while the
  // search budget concentrates on the hard core.
  Family reduced;
  {
    obs::Span span("reduce", "exact");
    reduced = ReduceToFixpoint(family);
  }
  const int num_elements = MaxElementPlusOne(reduced);

  DisjointSet components(num_elements);
  for (size_t i = 0; i < reduced.size(); ++i) {
    const int* s = reduced.begin(i);
    for (size_t j = 1; j < reduced.len(i); ++j) components.Union(s[0], s[j]);
  }
  // (root, span id) pairs in ascending order: the components in
  // ascending-root order, each listing its spans in ascending order —
  // one flat sort instead of a container per component.
  std::vector<std::pair<int, uint32_t>> by_root(reduced.size());
  for (size_t i = 0; i < reduced.size(); ++i) {
    by_root[i] = {components.Find(reduced.begin(i)[0]),
                  static_cast<uint32_t>(i)};
  }
  std::sort(by_root.begin(), by_root.end());

  // Localize every component up front (serial, in that deterministic
  // order): dense local ids keep each component's solver small, and a
  // flat task vector is what the worker pool fans out over.
  struct ComponentTask {
    std::vector<int> local_to_global;
    Family local;
    bool all_small = true;
  };
  std::vector<ComponentTask> tasks;
  std::vector<int> global_to_local(static_cast<size_t>(num_elements), -1);
  for (size_t k = 0; k < by_root.size(); ++k) {
    if (k == 0 || by_root[k].first != by_root[k - 1].first) {
      tasks.emplace_back();
    }
    ComponentTask& task = tasks.back();
    const uint32_t si = by_root[k].second;
    const uint32_t offset = static_cast<uint32_t>(task.local.pool.size());
    for (const int* p = reduced.begin(si); p != reduced.end(si); ++p) {
      int& slot = global_to_local[static_cast<size_t>(*p)];
      if (slot < 0) {
        slot = static_cast<int>(task.local_to_global.size());
        task.local_to_global.push_back(*p);
      }
      task.local.pool.push_back(slot);
    }
    task.all_small = task.all_small && reduced.len(si) <= 2;
    task.local.sets.push_back(SetSpan{offset, reduced.sets[si].len});
  }

  // One budget for the whole solve, one counter slot per component.
  // Components share no elements, so each solve below is a pure
  // function of its task (plus, under a budget, the raced budget
  // atomics) — which worker runs it cannot change its answer or its
  // counters. That is what makes the parallel path byte-identical to
  // the serial one: same per-component searches, same counter slots,
  // merged in the same partition order.
  NodeBudget budget;
  budget.limit = options.node_budget;
  std::vector<SearchCtx> ctxs(tasks.size());
  for (SearchCtx& c : ctxs) c.budget = &budget;
  std::vector<std::vector<int>> chosen(tasks.size());  // local ids per task

  auto solve_component = [&](size_t i) {
    obs::Span span("component-solve", "exact");
    ComponentTask& task = tasks[i];
    if (task.local.size() == 1) {
      // The reduction leaves a one-set component as a single forced
      // element: one root node, as the cover search would take.
      ctxs[i].TakeNode();
      chosen[i].push_back(0);
      return;
    }
    chosen[i] =
        task.all_small
            ? SolveAsVertexCover(task.local,
                                 static_cast<int>(task.local_to_global.size()),
                                 &ctxs[i])
            : SolveComponent(std::move(task.local), &ctxs[i]);
  };
  int threads = std::max(1, options.solver_threads);
  if (threads <= 1 || tasks.size() <= 1) {
    for (size_t i = 0; i < tasks.size(); ++i) solve_component(i);
  } else {
    WorkerPool pool(static_cast<int>(
        std::min<size_t>(static_cast<size_t>(threads), tasks.size())));
    pool.Run(tasks.size(), solve_component);
  }

  // Deterministic component-index-ordered merge (the final sort makes
  // the member order canonical regardless of which worker finished
  // first).
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (int e : chosen[i]) {
      result.chosen.push_back(
          tasks[i].local_to_global[static_cast<size_t>(e)]);
    }
  }
  std::sort(result.chosen.begin(), result.chosen.end());
  result.size = static_cast<int>(result.chosen.size());

  // Partition-order merge of the per-component slots (the order is the
  // deterministic ascending-root order the tasks were built in).
  ExactStats search;
  search.components = static_cast<int>(tasks.size());
  for (const SearchCtx& c : ctxs) {
    search.nodes += c.nodes;
    search.packing_prunes += c.packing_prunes;
    search.flow_prunes += c.flow_prunes;
  }
  search.node_budget_exceeded =
      budget.exceeded.load(std::memory_order_relaxed);
  result.proven_optimal = !search.node_budget_exceeded;

  obs::Count("exact.solves");
  obs::Count("exact.components", static_cast<uint64_t>(search.components));
  obs::Count("exact.nodes", search.nodes);
  obs::Count("exact.packing_prunes", search.packing_prunes);
  obs::Count("exact.flow_prunes", search.flow_prunes);

  if (stats != nullptr) stats->Merge(search);
  return result;
}

HittingSetFamily HittingSetFamily::From(const WitnessFamily& family,
                                        std::vector<TupleId>* element_tuples) {
  element_tuples->clear();
  // A flat tuple -> element table: relation r's rows [0, max row] sit
  // at base[r], so numbering a tuple is one array probe.
  std::vector<size_t> base;
  for (size_t i = 0; i < family.size(); ++i) {
    for (const TupleId* t = family.begin(i); t != family.end(i); ++t) {
      const size_t rel = static_cast<size_t>(t->relation);
      if (base.size() < rel + 2) base.resize(rel + 2, 0);
      base[rel + 1] =
          std::max(base[rel + 1], static_cast<size_t>(t->row) + 1);
    }
  }
  std::partial_sum(base.begin(), base.end(), base.begin());
  std::vector<int> element(base.empty() ? 0 : base.back(), -1);

  HittingSetFamily hs;
  hs.pool.reserve(family.arena.pool_size());
  hs.sets.reserve(family.size());
  for (size_t i = 0; i < family.size(); ++i) {
    const uint32_t offset = static_cast<uint32_t>(hs.pool.size());
    for (const TupleId* t = family.begin(i); t != family.end(i); ++t) {
      int& id = element[base[static_cast<size_t>(t->relation)] +
                        static_cast<size_t>(t->row)];
      if (id < 0) {
        id = static_cast<int>(element_tuples->size());
        element_tuples->push_back(*t);
      }
      hs.pool.push_back(id);
    }
    hs.sets.push_back(SetSpan{offset, family.sets[i].len});
  }
  return hs;
}

ResilienceResult ComputeResilienceExact(const Query& q, const Database& db) {
  return ComputeResilienceExact(q, db, ExactOptions{}, nullptr);
}

ResilienceResult ComputeResilienceExact(const Query& q, const Database& db,
                                        const ExactOptions& options,
                                        ExactStats* stats) {
  return SolveWitnessFamily(
      CollectWitnessFamily(q, db, options.witness_cap()), options, stats);
}

ResilienceResult SolveWitnessFamily(const WitnessFamily& family,
                                    const ExactOptions& options,
                                    ExactStats* stats) {
  ResilienceResult result;
  result.solver = SolverKind::kExact;

  ExactStats local;
  local.witnesses = family.witnesses;
  local.witness_sets = family.size();
  local.witness_budget_exceeded = family.budget_exceeded;

  if (family.unbreakable) {
    result.unbreakable = true;
    if (stats != nullptr) stats->Merge(local);
    return result;
  }
  if (family.budget_exceeded) {
    // Incomplete family: any hitting set of it could miss witnesses, so
    // no answer is returned. Callers must check the stats flag.
    if (stats != nullptr) stats->Merge(local);
    return result;
  }
  if (family.sets.empty()) {
    if (stats != nullptr) stats->Merge(local);
    return result;  // D does not satisfy q
  }

  std::vector<TupleId> tuples;
  const HittingSetFamily hs = HittingSetFamily::From(family, &tuples);
  HittingSetResult hs_result = SolveMinHittingSet(hs, options, &local);
  result.resilience = hs_result.size;
  for (int e : hs_result.chosen) {
    result.contingency.push_back(tuples[static_cast<size_t>(e)]);
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  if (stats != nullptr) stats->Merge(local);
  return result;
}

}  // namespace rescq
