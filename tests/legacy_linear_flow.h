#ifndef RESCQ_TESTS_LEGACY_LINEAR_FLOW_H_
#define RESCQ_TESTS_LEGACY_LINEAR_FLOW_H_

// The witness-built linear-query flow network, kept only as a test
// reference for SolveLinearFlow, which builds the same network from the
// tuples. Here every witness streams through ForEachWitness and adds
// its path: one node per (boundary, interface values) and one edge per
// (position, tuple) it uses, so the network holds exactly the edges that
// lie on some s-t path. The tuple-built network adds only dangling edges
// on none, so both must give the same unbreakable flag, rho and
// contingency set (the residual source side of a maximum flow does not
// depend on which maximum flow was found).

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "complexity/linearity.h"
#include "cq/query.h"
#include "db/database.h"
#include "db/witness.h"
#include "flow/max_flow.h"
#include "resilience/linear_flow_solver.h"
#include "resilience/result.h"

namespace rescq {

struct LegacyValuesHash {
  size_t operator()(const std::vector<Value>& values) const {
    return HashValues(values.data(), values.size());
  }
};

/// SolveLinearFlow over the witness-built network (same contract).
/// Unlike SolveLinearFlow it does not check Lemma 55: it returns the
/// distinct cut tuples, and rho is the cut value.
inline std::optional<ResilienceResult> LegacySolveLinearFlow(
    const Query& q, const Database& db,
    const TupleOverride& force_undeletable = nullptr) {
  std::optional<std::vector<int>> order = FindLinearOrder(q);
  if (!order.has_value()) return std::nullopt;
  const int m = q.num_atoms();
  std::vector<std::vector<VarId>> interfaces = LinearInterfaces(q, *order);
  ResilienceResult result;
  result.solver = SolverKind::kLinearFlow;

  MaxFlow flow(2);
  const int s = 0;
  const int t = 1;
  std::vector<std::unordered_map<std::vector<Value>, int, LegacyValuesHash>>
      nodes(static_cast<size_t>(m));
  auto boundary_node = [&](const Witness& w, int boundary) {
    if (boundary == 0) return s;
    if (boundary == m) return t;
    std::vector<Value> key;
    for (VarId v : interfaces[static_cast<size_t>(boundary - 1)]) {
      key.push_back(w.assignment[static_cast<size_t>(v)]);
    }
    auto [it, inserted] =
        nodes[static_cast<size_t>(boundary)].try_emplace(key, -1);
    if (inserted) it->second = flow.AddNode();
    return it->second;
  };
  std::vector<std::unordered_set<TupleId, TupleIdHash>> edges(
      static_cast<size_t>(m));
  std::vector<TupleId> edge_tuples;
  ForEachWitness(q, db, [&](const Witness& w) {
    for (int pos = 0; pos < m; ++pos) {
      int atom_idx = (*order)[static_cast<size_t>(pos)];
      TupleId tuple = w.atom_tuples[static_cast<size_t>(atom_idx)];
      if (!edges[static_cast<size_t>(pos)].insert(tuple).second) continue;
      int from = boundary_node(w, pos);
      int to = boundary_node(w, pos + 1);
      bool deletable = !q.atom(atom_idx).exogenous &&
                       !(force_undeletable && force_undeletable(db, tuple));
      int tag = static_cast<int>(edge_tuples.size());
      edge_tuples.push_back(tuple);
      flow.AddEdge(from, to, deletable ? 1 : kInfCapacity, tag);
    }
    return true;
  });

  int64_t value = flow.Compute(s, t);
  if (value >= kInfCapacity) {
    result.unbreakable = true;
    return result;
  }
  for (int e : flow.MinCutEdges()) {
    result.contingency.push_back(
        edge_tuples[static_cast<size_t>(flow.edge(e).tag)]);
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  result.contingency.erase(
      std::unique(result.contingency.begin(), result.contingency.end()),
      result.contingency.end());
  result.resilience = static_cast<int>(value);
  return result;
}

}  // namespace rescq

#endif  // RESCQ_TESTS_LEGACY_LINEAR_FLOW_H_
