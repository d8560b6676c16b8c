#include "resilience/linear_flow_solver.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "complexity/linearity.h"
#include "db/witness.h"
#include "flow/max_flow.h"
#include "util/check.h"

namespace rescq {

namespace {

struct ValuesHash {
  size_t operator()(const std::vector<Value>& values) const {
    return HashValues(values.data(), values.size());
  }
};

}  // namespace

std::optional<ResilienceResult> SolveLinearFlow(
    const Query& q, const Database& db,
    const TupleOverride& force_undeletable) {
  std::optional<std::vector<int>> order_opt = FindLinearOrder(q);
  if (!order_opt.has_value()) return std::nullopt;
  const std::vector<int>& order = *order_opt;
  const int m = q.num_atoms();
  std::vector<std::vector<VarId>> interfaces = LinearInterfaces(q, order);
  ResilienceResult result;
  result.solver = SolverKind::kLinearFlow;

  MaxFlow flow(2);  // s = 0, t = 1
  const int s = 0;
  const int t = 1;
  // Interface nodes per inner boundary: interface values -> node. The
  // key buffer is reused, so only a boundary's first sight of a key
  // allocates.
  std::vector<std::unordered_map<std::vector<Value>, int, ValuesHash>>
      nodes(static_cast<size_t>(m));
  std::vector<Value> key;
  auto boundary_node = [&](const Witness& w, int boundary) {
    if (boundary == 0) return s;
    if (boundary == m) return t;
    key.clear();
    for (VarId v : interfaces[static_cast<size_t>(boundary - 1)]) {
      key.push_back(w.assignment[static_cast<size_t>(v)]);
    }
    auto [it, inserted] =
        nodes[static_cast<size_t>(boundary)].try_emplace(key, -1);
    if (inserted) it->second = flow.AddNode();
    return it->second;
  };
  // The tuples that already have an edge, per position; edge tags index
  // edge_tuples.
  std::vector<std::unordered_set<TupleId, TupleIdHash>> edges(
      static_cast<size_t>(m));
  std::vector<TupleId> edge_tuples;
  std::vector<bool> edge_deletable;

  // Witnesses stream in enumeration order, so nodes and edges are added
  // in the same order a materialized witness list would give. With no
  // witness the graph has no edge, and the cut below is empty.
  ForEachWitness(q, db, [&](const Witness& w) {
    for (int pos = 0; pos < m; ++pos) {
      int atom_idx = order[static_cast<size_t>(pos)];
      TupleId tuple = w.atom_tuples[static_cast<size_t>(atom_idx)];
      if (!edges[static_cast<size_t>(pos)].insert(tuple).second) continue;
      int from = boundary_node(w, pos);
      int to = boundary_node(w, pos + 1);
      bool deletable = !q.atom(atom_idx).exogenous &&
                       !(force_undeletable && force_undeletable(db, tuple));
      int64_t cap = deletable ? 1 : kInfCapacity;
      int tag = static_cast<int>(edge_tuples.size());
      edge_tuples.push_back(tuple);
      edge_deletable.push_back(deletable);
      flow.AddEdge(from, to, cap, tag);
    }
    return true;
  });

  int64_t value = flow.Compute(s, t);
  if (value >= kInfCapacity) {
    result.unbreakable = true;
    return result;
  }
  std::vector<TupleId> cut_tuples;
  for (int e : flow.MinCutEdges()) {
    int64_t tag = flow.edge(e).tag;
    RESCQ_CHECK(edge_deletable[static_cast<size_t>(tag)]);
    cut_tuples.push_back(edge_tuples[static_cast<size_t>(tag)]);
  }
  std::sort(cut_tuples.begin(), cut_tuples.end());
  cut_tuples.erase(std::unique(cut_tuples.begin(), cut_tuples.end()),
                   cut_tuples.end());
  // Lemma 55: a (cardinality-)minimal cut never takes two copies of one
  // tuple, so the cut value equals the number of distinct tuples.
  RESCQ_CHECK_EQ(static_cast<int64_t>(cut_tuples.size()), value);
  result.resilience = static_cast<int>(value);
  result.contingency = std::move(cut_tuples);
  return result;
}

}  // namespace rescq
