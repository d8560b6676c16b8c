#include "resilience/linear_flow_solver.h"

#include <algorithm>
#include <unordered_map>

#include "complexity/linearity.h"
#include "resilience/flow_cut.h"
#include "util/check.h"

namespace rescq {

namespace {

// For each variable of `vars`, the atom column of its first occurrence.
std::vector<size_t> ColumnsOf(const Atom& atom,
                              const std::vector<VarId>& vars) {
  std::vector<size_t> cols;
  for (VarId v : vars) {
    cols.push_back(static_cast<size_t>(
        std::find(atom.vars.begin(), atom.vars.end(), v) - atom.vars.begin()));
  }
  return cols;
}

}  // namespace

ResilienceResult SolveLinearFlow(const Query& q, const Database& db,
                                 const TupleOverride& force_undeletable) {
  std::optional<std::vector<int>> order_opt = FindLinearOrder(q);
  RESCQ_CHECK_MSG(order_opt.has_value(), "linear flow needs a linear query");
  const std::vector<int>& order = *order_opt;
  const int m = q.num_atoms();
  std::vector<std::vector<VarId>> interfaces = LinearInterfaces(q, order);

  MaxFlow flow(2);  // s = 0, t = 1
  const int s = 0;
  const int t = 1;
  // Interface values -> node, per inner boundary b (nodes[b - 1]). A key
  // folds into a dense id: its first value v is id v + 1 (so a
  // one-variable interface is indexed by value, unhashed), and each
  // further value extends the id through a hashed (id, value) word.
  std::vector<std::vector<int>> nodes(interfaces.size());
  std::unordered_map<uint64_t, uint32_t> words;
  uint32_t next_id = static_cast<uint32_t>(db.domain_size()) + 1;
  // The node of `row`'s values at `cols` on boundary b; -1 when no edge
  // has reached it, unless `add` adds it.
  auto node = [&](int b, RowView row, const std::vector<size_t>& cols,
                  bool add) {
    uint32_t id = cols.empty() ? 0 : static_cast<uint32_t>(row[cols[0]]) + 1;
    for (size_t i = 1; i < cols.size(); ++i) {
      uint64_t word = uint64_t{id} << 32 | static_cast<uint32_t>(row[cols[i]]);
      auto it = words.find(word);
      if (it == words.end()) {
        if (!add) return -1;
        it = words.emplace(word, next_id++).first;
      }
      id = it->second;
    }
    std::vector<int>& ids = nodes[static_cast<size_t>(b - 1)];
    if (id >= ids.size()) {
      if (!add) return -1;
      ids.resize(id + 1, -1);
    }
    if (ids[id] < 0 && add) ids[id] = flow.AddNode();
    return ids[id];
  };
  // One edge per (position, active tuple passing its atom's filter), from
  // its left interface values' node to its right ones'. Positions run in
  // order, and a tuple whose left node no earlier edge reached is
  // skipped: every edge is reachable from s.
  for (int pos = 0; pos < m; ++pos) {
    const Atom& atom = q.atom(order[static_cast<size_t>(pos)]);
    const int rel = db.RelationId(atom.relation);
    // An absent relation, or one stored at another arity, matches no
    // atom: no s-t path, rho = 0.
    if (rel < 0 || db.relation_arity(rel) != atom.arity()) break;
    // A repeated variable (R(x,x)) asks its later columns to equal the
    // first.
    const std::vector<size_t> first_col = ColumnsOf(atom, atom.vars);
    const std::vector<size_t> left_cols =
        pos > 0 ? ColumnsOf(atom, interfaces[static_cast<size_t>(pos - 1)])
                : std::vector<size_t>{};
    const std::vector<size_t> right_cols =
        pos + 1 < m ? ColumnsOf(atom, interfaces[static_cast<size_t>(pos)])
                    : std::vector<size_t>{};
    for (TupleId tuple : db.ActiveTuples(rel)) {
      RowView row = db.Row(tuple);
      bool matches = true;
      for (size_t c = 0; c < first_col.size() && matches; ++c) {
        matches = row[c] == row[first_col[c]];
      }
      if (!matches) continue;
      const int from = pos == 0 ? s : node(pos, row, left_cols, false);
      if (from < 0) continue;
      const int to = pos + 1 == m ? t : node(pos + 1, row, right_cols, true);
      AddTupleEdge(flow, from, to, tuple,
                   !atom.exogenous &&
                       !(force_undeletable && force_undeletable(db, tuple)));
    }
  }
  return SolveMinCut(flow, SolverKind::kLinearFlow);
}

}  // namespace rescq
