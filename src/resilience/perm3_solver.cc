#include "resilience/perm3_solver.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "resilience/flow_cut.h"
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

bool Perm3FlowApplies(const Query& q) { return MatchPerm3(q).has_value(); }

ResilienceResult SolvePerm3Flow(const Query& q, const Database& db) {
  std::optional<Perm3Shape> shape = MatchPerm3(q);
  RESCQ_CHECK_MSG(shape.has_value(), "perm3 flow needs q_A3perm-R's shape");
  // Every s-t path below is a witness and every witness gives one, so a
  // false query needs no check: its flow is 0. An absent relation, or one
  // stored at another arity, matches no atom: no witness, rho = 0.
  const Atom& l = q.atom(shape->l_atom);
  const int r_rel = db.RelationId(shape->r);
  const int l_rel = db.RelationId(l.relation);
  if (r_rel < 0 || l_rel < 0 || db.relation_arity(r_rel) != 2 ||
      db.relation_arity(l_rel) != l.arity()) {
    ResilienceResult result;
    result.solver = SolverKind::kPerm3Flow;
    return result;
  }
  const size_t domain = static_cast<size_t>(db.domain_size());

  // Canonical read of an R tuple (column swap applied).
  auto r_row = [&](TupleId id) {
    RowView row = db.Row(id);
    return shape->r_swapped ? std::make_pair(row[1], row[0])
                            : std::make_pair(row[0], row[1]);
  };
  auto word = [](Value a, Value b) {
    return uint64_t{static_cast<uint32_t>(a)} << 32 | static_cast<uint32_t>(b);
  };
  // Active R tuples by their canonical (a, b).
  const std::vector<TupleId> r_active = db.ActiveTuples(r_rel);
  std::unordered_map<uint64_t, TupleId> r_tuples;
  for (TupleId id : r_active) {
    auto [a, b] = r_row(id);
    r_tuples.emplace(word(a, b), id);
  }

  MaxFlow flow(2);
  const int s = 0;
  const int t = 1;
  // Per value a: v_a (fed by L tuples), u_a (reached by a 1-way
  // connector), and the pair nodes containing a; -1 / empty = none.
  std::vector<int> v_nodes(domain, -1);
  std::vector<int> u_nodes(domain, -1);
  std::vector<std::vector<int>> pairs_of(domain);

  // L tuples feed v_a with capacity 1.
  for (TupleId id : db.ActiveTuples(l_rel)) {
    const size_t a = static_cast<size_t>(
        db.Row(id)[static_cast<size_t>(shape->l_x_pos)]);
    if (v_nodes[a] < 0) v_nodes[a] = flow.AddNode();
    AddTupleEdge(flow, s, v_nodes[a], id);
  }
  // 2-way pairs {a,b} with a<=b (loops included): a node with a
  // capacity-1 edge to t, tagged R(a,b) and fed directly by v_a and v_b.
  // The rest are 1-way.
  std::vector<TupleId> one_way;
  for (TupleId id : r_active) {
    auto [a, b] = r_row(id);
    if (!r_tuples.count(word(b, a))) {
      one_way.push_back(id);
      continue;
    }
    if (a > b) continue;  // the pair is added from its (b, a) tuple
    int node = flow.AddNode();
    AddTupleEdge(flow, node, t, id);
    for (Value v : {a, b}) {
      pairs_of[static_cast<size_t>(v)].push_back(node);
      if (v_nodes[static_cast<size_t>(v)] >= 0) {
        flow.AddEdge(v_nodes[static_cast<size_t>(v)], node, kInfCapacity);
      }
      if (a == b) break;
    }
  }
  // 1-way connector edges v_a -> u_b (-> pairs containing b).
  for (TupleId id : one_way) {
    auto [a, b] = r_row(id);
    const int from = v_nodes[static_cast<size_t>(a)];
    if (from < 0) continue;  // no L tuple can reach it
    int& u = u_nodes[static_cast<size_t>(b)];
    if (u < 0) {
      u = flow.AddNode();
      for (int pair : pairs_of[static_cast<size_t>(b)]) {
        flow.AddEdge(u, pair, kInfCapacity);
      }
    }
    AddTupleEdge(flow, from, u, id, !shape->l_unary);
  }

  // Value a is still alive when some uncut L edge feeds v_a. The cut is
  // every edge from the source side to the sink side, so the L edges
  // s -> v_a are uncut exactly when v_a is on the source side.
  auto alive = [&](Value a) {
    const int v = v_nodes[static_cast<size_t>(a)];
    return v >= 0 && flow.OnSourceSide(v);
  };
  // A cut pair edge is tagged R(a,b). Side rule from the proofs: delete
  // the tuple leaving the side that is still alive (both or neither
  // alive: arbitrary, R(a,b)). L tuples and 1-way R tuples are taken
  // verbatim.
  return SolveMinCut(flow, SolverKind::kPerm3Flow, [&](TupleId tuple) {
    if (tuple.relation != r_rel) return tuple;
    auto [a, b] = r_row(tuple);
    auto inverse = r_tuples.find(word(b, a));
    if (inverse == r_tuples.end() || !alive(b) || alive(a)) return tuple;
    return inverse->second;
  });
}

}  // namespace rescq
