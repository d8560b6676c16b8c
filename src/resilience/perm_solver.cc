#include "resilience/perm_solver.h"

#include <algorithm>
#include <map>

#include "complexity/patterns.h"
#include "db/witness.h"
#include "flow/bipartite.h"
#include "flow/max_flow.h"
#include "util/check.h"

namespace rescq {

namespace {

// Shape of an unbound-permutation query: the permutation pair plus at
// most one further endogenous atom L containing exactly one of the pair's
// variables.
struct PermShape {
  int a1 = -1;
  int a2 = -1;
  int l_atom = -1;  // -1 if the pair are the only endogenous atoms
};

std::optional<PermShape> MatchPermShape(const Query& q) {
  std::vector<int> endo = q.EndogenousAtoms();
  PermShape shape;
  // Find the permutation pair.
  for (size_t i = 0; i < endo.size() && shape.a1 < 0; ++i) {
    for (size_t j = i + 1; j < endo.size() && shape.a1 < 0; ++j) {
      const Atom& p = q.atom(endo[i]);
      const Atom& r = q.atom(endo[j]);
      if (p.relation != r.relation || p.arity() != 2 || r.arity() != 2) {
        continue;
      }
      if (ClassifyPair(q, endo[i], endo[j]) == PairPattern::kPermutation) {
        shape.a1 = endo[i];
        shape.a2 = endo[j];
      }
    }
  }
  if (shape.a1 < 0) return std::nullopt;
  VarId x = q.atom(shape.a1).vars[0];
  VarId y = q.atom(shape.a1).vars[1];
  for (int i : endo) {
    if (i == shape.a1 || i == shape.a2) continue;
    if (shape.l_atom != -1) return std::nullopt;  // more than one extra atom
    const Atom& a = q.atom(i);
    bool has_x = a.HasVar(x);
    bool has_y = a.HasVar(y);
    if (has_x == has_y) return std::nullopt;  // both or neither: not case 1
    shape.l_atom = i;
  }
  return shape;
}

// The pair tuples of a witness under a shape: the (deduplicated) tuples
// matched by the two permutation atoms.
std::vector<TupleId> PairOf(const Witness& w, const PermShape& shape) {
  std::vector<TupleId> pair = {
      w.atom_tuples[static_cast<size_t>(shape.a1)],
      w.atom_tuples[static_cast<size_t>(shape.a2)]};
  std::sort(pair.begin(), pair.end());
  pair.erase(std::unique(pair.begin(), pair.end()), pair.end());
  return pair;
}

}  // namespace

std::optional<ResilienceResult> SolvePermutationCount(const Query& q,
                                                      const Database& db) {
  std::optional<PermShape> shape = MatchPermShape(q);
  if (!shape.has_value() || shape->l_atom != -1) return std::nullopt;
  ResilienceResult result;
  result.solver = SolverKind::kPermCount;
  WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
  // Every witness uses the endogenous pair, so no set is empty.
  RESCQ_CHECK(!family.unbreakable);
  // Each tuple participates in exactly one witness tuple-set: the sets are
  // pairwise disjoint, so the minimum hitting set takes one per set.
  result.resilience = static_cast<int>(family.size());
  for (size_t i = 0; i < family.size(); ++i) {
    result.contingency.push_back(*family.begin(i));
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  return result;
}

std::optional<ResilienceResult> SolvePermutationBipartite(
    const Query& q, const Database& db) {
  std::optional<PermShape> shape = MatchPermShape(q);
  if (!shape.has_value() || shape->l_atom == -1) return std::nullopt;
  std::vector<Witness> witnesses = EnumerateWitnesses(q, db, kNoWitnessLimit);
  ResilienceResult result;
  result.solver = SolverKind::kPermBipartite;
  if (witnesses.empty()) return result;

  // Left: L-tuples; right: pair tuple-sets. One bipartite edge per
  // witness. Deleting the L-tuple or either tuple of the pair kills the
  // witness, so a vertex cover = a contingency set.
  std::map<TupleId, int> left_ids;
  std::vector<TupleId> lefts;
  std::map<std::vector<TupleId>, int> right_ids;
  std::vector<std::vector<TupleId>> rights;
  std::vector<std::pair<int, int>> bip_edges;
  for (const Witness& w : witnesses) {
    TupleId l = w.atom_tuples[static_cast<size_t>(shape->l_atom)];
    auto [lit, lnew] = left_ids.emplace(l, static_cast<int>(lefts.size()));
    if (lnew) lefts.push_back(l);
    std::vector<TupleId> pair = PairOf(w, *shape);
    auto [rit, rnew] = right_ids.emplace(pair, static_cast<int>(rights.size()));
    if (rnew) rights.push_back(pair);
    bip_edges.emplace_back(lit->second, rit->second);
  }
  BipartiteCover cover(static_cast<int>(lefts.size()),
                       static_cast<int>(rights.size()));
  std::sort(bip_edges.begin(), bip_edges.end());
  bip_edges.erase(std::unique(bip_edges.begin(), bip_edges.end()),
                  bip_edges.end());
  for (auto [l, r] : bip_edges) cover.AddEdge(l, r);
  cover.Compute();
  result.resilience = cover.CoverSize();
  for (size_t i = 0; i < lefts.size(); ++i) {
    if (cover.left_in_cover()[i]) result.contingency.push_back(lefts[i]);
  }
  for (size_t i = 0; i < rights.size(); ++i) {
    if (cover.right_in_cover()[i]) {
      result.contingency.push_back(rights[i].front());
    }
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  return result;
}

std::optional<ResilienceResult> SolveUnboundPermutationFlow(
    const Query& q, const Database& db) {
  std::optional<PermShape> shape = MatchPermShape(q);
  if (!shape.has_value() || shape->l_atom == -1) return std::nullopt;
  std::vector<Witness> witnesses = EnumerateWitnesses(q, db, kNoWitnessLimit);
  ResilienceResult result;
  result.solver = SolverKind::kUnboundPermFlow;
  if (witnesses.empty()) return result;

  MaxFlow flow(2);
  const int s = 0;
  const int t = 1;
  std::map<TupleId, std::pair<int, int>> l_nodes;   // L-tuple -> (node, edge)
  std::map<std::vector<TupleId>, std::pair<int, int>> pair_nodes;
  std::vector<TupleId> edge_tuple;                  // tag -> L tuple
  std::vector<std::vector<TupleId>> edge_pair;      // tag -> pair (offset)
  constexpr int64_t kPairTagBase = 1'000'000'000;

  for (const Witness& w : witnesses) {
    TupleId l = w.atom_tuples[static_cast<size_t>(shape->l_atom)];
    auto [lit, lnew] = l_nodes.try_emplace(l, std::make_pair(-1, -1));
    if (lnew) {
      int node = flow.AddNode();
      int tag = static_cast<int>(edge_tuple.size());
      edge_tuple.push_back(l);
      int e = flow.AddEdge(s, node, 1, tag);
      lit->second = {node, e};
    }
    std::vector<TupleId> pair = PairOf(w, *shape);
    auto [pit, pnew] = pair_nodes.try_emplace(pair, std::make_pair(-1, -1));
    if (pnew) {
      int node = flow.AddNode();
      int64_t tag = kPairTagBase + static_cast<int64_t>(edge_pair.size());
      edge_pair.push_back(pair);
      int e = flow.AddEdge(node, t, 1, tag);
      pit->second = {node, e};
    }
    flow.AddEdge(lit->second.first, pit->second.first, kInfCapacity);
  }
  int64_t value = flow.Compute(s, t);
  RESCQ_CHECK_LT(value, kInfCapacity);
  for (int e : flow.MinCutEdges()) {
    int64_t tag = flow.edge(e).tag;
    if (tag >= kPairTagBase) {
      result.contingency.push_back(
          edge_pair[static_cast<size_t>(tag - kPairTagBase)].front());
    } else {
      result.contingency.push_back(edge_tuple[static_cast<size_t>(tag)]);
    }
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  result.contingency.erase(
      std::unique(result.contingency.begin(), result.contingency.end()),
      result.contingency.end());
  result.resilience = static_cast<int>(value);
  RESCQ_CHECK_EQ(result.resilience,
                 static_cast<int>(result.contingency.size()));
  return result;
}

}  // namespace rescq
