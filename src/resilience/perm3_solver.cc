#include "resilience/perm3_solver.h"

#include <algorithm>
#include <map>
#include <set>

#include "db/witness.h"
#include "flow/max_flow.h"
#include "util/check.h"

namespace rescq {

namespace {

struct Perm3Shape {
  std::string r;       // self-join relation
  bool r_swapped;      // read R columns swapped to canonical orientation
  int l_atom;          // the L atom index
  bool l_unary;        // A(x) vs S(w,x)
  int l_x_pos;         // column of x within L
};

// Matches q against A(x),R(x,y),R(y,z),R(z,y) / S(w,x),R(...) modulo
// variable names, relation names, and a global column swap of R.
std::optional<Perm3Shape> MatchPerm3(const Query& q) {
  if (q.num_atoms() != 4) return std::nullopt;
  if (!q.EndogenousAtoms().empty() &&
      q.EndogenousAtoms().size() != static_cast<size_t>(4)) {
    return std::nullopt;  // all four atoms must be endogenous
  }
  // Identify the self-join relation: exactly 3 atoms of one relation.
  std::map<std::string, std::vector<int>> by_rel;
  for (int i = 0; i < 4; ++i) by_rel[q.atom(i).relation].push_back(i);
  std::string r;
  int l_atom = -1;
  for (const auto& [rel, atoms] : by_rel) {
    if (atoms.size() == 3) {
      r = rel;
    } else if (atoms.size() == 1) {
      l_atom = atoms[0];
    } else {
      return std::nullopt;
    }
  }
  if (r.empty() || l_atom < 0) return std::nullopt;
  if (q.RelationArity(r) != 2) return std::nullopt;
  const Atom& l = q.atom(l_atom);
  if (l.arity() > 2 || l.HasRepeatedVar()) return std::nullopt;

  std::vector<int> r_atoms = by_rel[r];
  for (bool swapped : {false, true}) {
    auto col = [&](int atom, int c) {
      return q.atom(atom).vars[static_cast<size_t>(swapped ? 1 - c : c)];
    };
    // Try each R-atom as the connector R(x,y).
    std::sort(r_atoms.begin(), r_atoms.end());
    do {
      int conn = r_atoms[0], p1 = r_atoms[1], p2 = r_atoms[2];
      VarId x = col(conn, 0), y = col(conn, 1);
      VarId y1 = col(p1, 0), z1 = col(p1, 1);
      if (!(y1 == y && col(p2, 0) == z1 && col(p2, 1) == y)) continue;
      VarId z = z1;
      if (x == y || x == z || y == z) continue;
      // L must contain x and otherwise a fresh variable.
      int x_pos = -1;
      bool fresh_ok = true;
      for (int c = 0; c < l.arity(); ++c) {
        VarId v = l.vars[static_cast<size_t>(c)];
        if (v == x) {
          x_pos = c;
        } else if (v == y || v == z) {
          fresh_ok = false;
        }
      }
      if (x_pos < 0 || !fresh_ok) continue;
      return Perm3Shape{r, swapped, l_atom, l.arity() == 1, x_pos};
    } while (std::next_permutation(r_atoms.begin(), r_atoms.end()));
  }
  return std::nullopt;
}

}  // namespace

std::optional<ResilienceResult> SolvePerm3Flow(const Query& q,
                                               const Database& db) {
  std::optional<Perm3Shape> shape = MatchPerm3(q);
  if (!shape.has_value()) return std::nullopt;
  ResilienceResult result;
  result.solver = SolverKind::kPerm3Flow;
  if (!QueryHolds(q, db)) return result;

  int r_rel = db.RelationId(shape->r);
  int l_rel = db.RelationId(q.atom(shape->l_atom).relation);
  RESCQ_CHECK(r_rel >= 0 && l_rel >= 0);

  // Canonical read of an R tuple (column swap applied).
  auto r_row = [&](TupleId id) {
    RowView row = db.Row(id);
    return shape->r_swapped ? std::make_pair(row[1], row[0])
                            : std::make_pair(row[0], row[1]);
  };
  std::map<std::pair<Value, Value>, TupleId> r_tuples;
  for (TupleId id : db.ActiveTuples(r_rel)) r_tuples[r_row(id)] = id;

  // Classify: 2-way pairs {a,b} with a<=b (loops included) vs 1-way.
  std::set<std::pair<Value, Value>> pairs;
  std::vector<TupleId> one_way;
  for (const auto& [ab, id] : r_tuples) {
    auto [a, b] = ab;
    if (r_tuples.count({b, a})) {
      pairs.insert({std::min(a, b), std::max(a, b)});
    } else {
      one_way.push_back(id);
    }
  }

  MaxFlow flow(2);
  const int s = 0;
  const int t = 1;
  // Tag space: 0..N-1 index tuple tags, N.. index pair tags.
  std::vector<TupleId> tuple_tags;
  std::vector<std::pair<Value, Value>> pair_tags;
  constexpr int64_t kPairBase = 1'000'000'000;

  std::map<Value, int> v_nodes;  // value a -> v_a
  auto v_node = [&](Value a) {
    auto [it, inserted] = v_nodes.try_emplace(a, -1);
    if (inserted) it->second = flow.AddNode();
    return it->second;
  };
  std::map<Value, int> u_nodes;  // value b -> u_b (reached via connector)
  auto u_node = [&](Value b) {
    auto [it, inserted] = u_nodes.try_emplace(b, -1);
    if (inserted) it->second = flow.AddNode();
    return it->second;
  };
  std::map<std::pair<Value, Value>, int> pair_nodes;
  std::vector<int> l_edges;                 // edge idx per L tuple
  std::vector<TupleId> l_edge_tuple;

  // L tuples feed v_a with capacity 1.
  for (TupleId id : db.ActiveTuples(l_rel)) {
    Value a = db.Row(id)[static_cast<size_t>(shape->l_x_pos)];
    int tag = static_cast<int>(tuple_tags.size());
    tuple_tags.push_back(id);
    int e = flow.AddEdge(s, v_node(a), 1, tag);
    l_edges.push_back(e);
    l_edge_tuple.push_back(id);
  }
  // Pair nodes with capacity-1 edge to t.
  for (const auto& p : pairs) {
    int node = flow.AddNode();
    pair_nodes[p] = node;
    int64_t tag = kPairBase + static_cast<int64_t>(pair_tags.size());
    pair_tags.push_back(p);
    flow.AddEdge(node, t, 1, tag);
  }
  // Direct membership edges v_a -> pair containing a.
  for (const auto& [p, node] : pair_nodes) {
    for (Value a : {p.first, p.second}) {
      if (v_nodes.count(a)) {
        flow.AddEdge(v_nodes[a], node, kInfCapacity);
      }
      if (p.first == p.second) break;
    }
  }
  // 1-way connector edges v_a -> u_b (-> pairs containing b).
  std::set<Value> u_values;
  for (TupleId id : one_way) {
    auto [a, b] = r_row(id);
    if (!v_nodes.count(a)) continue;  // no L tuple can reach it
    int tag = static_cast<int>(tuple_tags.size());
    tuple_tags.push_back(id);
    int64_t cap = shape->l_unary ? kInfCapacity : 1;
    flow.AddEdge(v_nodes[a], u_node(b), cap, tag);
    u_values.insert(b);
  }
  for (Value b : u_values) {
    for (const auto& [p, node] : pair_nodes) {
      if (p.first == b || p.second == b) {
        flow.AddEdge(u_nodes[b], node, kInfCapacity);
      }
    }
  }

  int64_t value = flow.Compute(s, t);
  RESCQ_CHECK_LT(value, kInfCapacity);
  result.resilience = static_cast<int>(value);

  // Which L values are still alive (some uncut L-edge feeds them)?
  std::vector<int> cut = flow.MinCutEdges();
  std::set<int> cut_set(cut.begin(), cut.end());
  std::set<Value> alive;
  for (size_t i = 0; i < l_edges.size(); ++i) {
    if (!cut_set.count(l_edges[i])) {
      Value a = db.Row(l_edge_tuple[i])[static_cast<size_t>(shape->l_x_pos)];
      alive.insert(a);
    }
  }
  for (int e : cut) {
    int64_t tag = flow.edge(e).tag;
    if (tag < kPairBase) {
      result.contingency.push_back(tuple_tags[static_cast<size_t>(tag)]);
      continue;
    }
    auto [a, b] = pair_tags[static_cast<size_t>(tag - kPairBase)];
    // Side rule from the proofs: delete the tuple leaving the side that
    // is still alive.
    std::pair<Value, Value> choice;
    if (alive.count(a) && !alive.count(b)) {
      choice = {a, b};
    } else if (alive.count(b) && !alive.count(a)) {
      choice = {b, a};
    } else {
      choice = {a, b};  // both or neither alive: arbitrary
    }
    auto it = r_tuples.find(choice);
    RESCQ_CHECK(it != r_tuples.end());
    result.contingency.push_back(it->second);
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  RESCQ_CHECK_EQ(static_cast<int>(result.contingency.size()),
                 result.resilience);
  return result;
}

}  // namespace rescq
