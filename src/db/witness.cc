#include "db/witness.h"

#include <algorithm>
#include <unordered_set>

#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace rescq {

std::vector<std::vector<TupleId>> WitnessFamily::Materialize() const {
  std::vector<std::vector<TupleId>> out;
  out.reserve(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) out.push_back(set(i));
  return out;
}

uint64_t WitnessFamily::ApproxBytes() const {
  return arena.ApproxBytes() +
         static_cast<uint64_t>(sets.capacity()) * sizeof(SetSpan);
}

namespace {

using TupleIdSet = std::unordered_set<TupleId, TupleIdHash>;

// Per (relation, column): the rows holding each value, chained in append
// order. `head`/`tail`/`count` are indexed by Value — values are dense
// Database ids, so the arrays span the domain and a probe is one load —
// and `next` by row, -1 ending a chain. Active rows are not
// distinguished here; activity is checked at probe time so the index can
// be built once and reused across deactivations.
struct ColumnChains {
  std::vector<int32_t> head;
  std::vector<int32_t> tail;
  std::vector<int32_t> count;
  std::vector<int32_t> next;
};

// Streaming witness enumerator. Prepare() resolves relations and builds
// the column indexes once; RunAll() enumerates every witness, and
// RunPinned() enumerates only witnesses whose *first* changed atom (in
// query order) is a given (atom, tuple) pair — the building block of
// WitnessIndex::ForEachDelta, sharing the prepared indexes across pins.
struct Enumerator {
  Enumerator(const Query& query, const Database& database)
      : q(query), db(database) {}

  const Query& q;
  const Database& db;

  std::vector<int> atom_rel;              // db relation id per atom
  // Per db relation id, one ColumnChains per column.
  std::vector<std::vector<ColumnChains>> indexes;
  std::vector<int> order;                 // atom visit order
  std::vector<Value> binding;             // per VarId, -1 if unbound
  std::vector<TupleId> matched;           // per atom (query order)
  Witness scratch;                        // reused between Emit calls
  WitnessVisitor visit;
  // Delta pinning: atom `pinned_atom` must match exactly `pinned_tuple`,
  // and atoms before it (query order) must avoid every tuple in
  // `changed` — so each incident witness is emitted by exactly one pin.
  int pinned_atom = -1;
  TupleId pinned_tuple;
  const TupleIdSet* changed = nullptr;
  bool order_cached = false;

  // Scratch reused across runs: delta maintenance fires thousands of
  // tiny pinned runs per epoch, so per-run allocations add up.
  std::vector<bool> placed_scratch;
  std::vector<bool> var_bound_scratch;
  std::vector<std::vector<VarId>> newly_bound_stack;  // per recursion depth

  bool prepared = false;
  std::vector<int> indexed_rows;  // per db relation id: rows indexed so far

  // Appends `row` to its value's chain in every column. The value arrays
  // must already span the row's values (IndexNewRows grows them first).
  void IndexRow(std::vector<ColumnChains>& columns, int rel, int32_t row) {
    RowView t = db.Row(TupleId{rel, row});
    for (size_t c = 0; c < t.size(); ++c) {
      ColumnChains& col = columns[c];
      const size_t v = static_cast<size_t>(t[c]);
      col.next.push_back(-1);
      if (col.head[v] < 0) {
        col.head[v] = row;
      } else {
        col.next[static_cast<size_t>(col.tail[v])] = row;
      }
      col.tail[v] = row;
      ++col.count[v];
    }
  }

  // Indexes rows [indexed_rows[rel], NumRows(rel)) of each query
  // relation, first growing the value arrays to the current domain.
  void IndexNewRows() {
    const size_t domain = static_cast<size_t>(db.domain_size());
    // A self-join relation repeats in atom_rel; its second visit finds
    // nothing left to index.
    for (int rel : atom_rel) {
      std::vector<ColumnChains>& columns = indexes[static_cast<size_t>(rel)];
      for (ColumnChains& col : columns) {
        col.head.resize(domain, -1);
        col.tail.resize(domain, -1);
        col.count.resize(domain, 0);
      }
      for (int row = indexed_rows[static_cast<size_t>(rel)];
           row < db.NumRows(rel); ++row) {
        IndexRow(columns, rel, row);
      }
      indexed_rows[static_cast<size_t>(rel)] = db.NumRows(rel);
    }
  }

  /// False when some query relation is absent or has the wrong arity in
  /// the database: no witness can exist and no Run* call is needed.
  /// Retryable — an update stream may create the relation later.
  bool Prepare() {
    atom_rel.resize(static_cast<size_t>(q.num_atoms()));
    for (int i = 0; i < q.num_atoms(); ++i) {
      int rel = db.RelationId(q.atom(i).relation);
      if (rel < 0) return false;
      if (db.relation_arity(rel) != q.atom(i).arity()) return false;
      atom_rel[static_cast<size_t>(i)] = rel;
    }
    BuildIndexes();
    prepared = true;
    return true;
  }

  /// Indexes rows added since BuildIndexes / the last sync (only for
  /// relations the query touches); retries the full Prepare when it
  /// failed before.
  void SyncIndexes() {
    if (!prepared) {
      Prepare();
      return;
    }
    IndexNewRows();
  }

  bool RunAll(WitnessVisitor v) {
    visit = v;
    pinned_atom = -1;
    changed = nullptr;
    order_cached = false;
    BuildOrder();
    binding.assign(static_cast<size_t>(q.num_vars()), -1);
    matched.assign(static_cast<size_t>(q.num_atoms()), TupleId{});
    if (newly_bound_stack.size() < static_cast<size_t>(q.num_atoms())) {
      newly_bound_stack.resize(static_cast<size_t>(q.num_atoms()));
    }
    return Recurse(0);
  }

  bool RunPinned(int atom, TupleId tuple, const TupleIdSet& changed_set,
                 WitnessVisitor v) {
    visit = v;
    pinned_tuple = tuple;
    changed = &changed_set;
    if (pinned_atom != atom || !order_cached) {
      // The visit order depends only on the pinned atom (row counts are
      // fixed within one delta call), so consecutive pins of one atom —
      // the common case, RunDelta iterates atom-major — reuse it.
      pinned_atom = atom;
      BuildOrder();
      order_cached = true;
    }
    binding.assign(static_cast<size_t>(q.num_vars()), -1);
    matched.assign(static_cast<size_t>(q.num_atoms()), TupleId{});
    // Sized up front: a resize mid-recursion would dangle the per-frame
    // references into it.
    if (newly_bound_stack.size() < static_cast<size_t>(q.num_atoms())) {
      newly_bound_stack.resize(static_cast<size_t>(q.num_atoms()));
    }
    return Recurse(0);
  }

  /// Row counts changed (or a fresh delta call begins): cached visit
  /// orders are stale.
  void InvalidateOrder() { order_cached = false; }

  void BuildOrder() {
    // Greedy: start from the atom with the fewest rows, then repeatedly
    // take the connected atom with the fewest rows (connected = shares a
    // variable with an already-ordered atom). A pinned atom goes first —
    // it has exactly one candidate tuple, making it the most selective
    // anchor possible.
    int n = q.num_atoms();
    order.clear();
    placed_scratch.assign(static_cast<size_t>(n), false);
    var_bound_scratch.assign(static_cast<size_t>(q.num_vars()), false);
    std::vector<bool>& placed = placed_scratch;
    std::vector<bool>& var_bound = var_bound_scratch;
    if (pinned_atom >= 0) {
      placed[static_cast<size_t>(pinned_atom)] = true;
      for (VarId v : q.atom(pinned_atom).vars) {
        var_bound[static_cast<size_t>(v)] = true;
      }
      order.push_back(pinned_atom);
    }
    for (int step = static_cast<int>(order.size()); step < n; ++step) {
      int best = -1;
      bool best_connected = false;
      int best_rows = 0;
      for (int i = 0; i < n; ++i) {
        if (placed[static_cast<size_t>(i)]) continue;
        bool connected = false;
        for (VarId v : q.atom(i).vars) {
          if (var_bound[static_cast<size_t>(v)]) connected = true;
        }
        int rows = db.NumRows(atom_rel[static_cast<size_t>(i)]);
        if (best == -1 || (connected && !best_connected) ||
            (connected == best_connected && rows < best_rows)) {
          best = i;
          best_connected = connected;
          best_rows = rows;
        }
      }
      placed[static_cast<size_t>(best)] = true;
      for (VarId v : q.atom(best).vars) var_bound[static_cast<size_t>(v)] = true;
      order.push_back(best);
    }
  }

  void BuildIndexes() {
    indexes.assign(static_cast<size_t>(db.num_relations()), {});
    indexed_rows.assign(static_cast<size_t>(db.num_relations()), 0);
    for (int rel : atom_rel) {
      indexes[static_cast<size_t>(rel)].resize(
          static_cast<size_t>(db.relation_arity(rel)));
    }
    IndexNewRows();
  }

  // Returns false to stop enumeration (the callback asked to).
  bool Recurse(size_t depth) {
    if (depth == order.size()) return Emit();
    int ai = order[depth];
    const Atom& atom = q.atom(ai);
    int rel = atom_rel[static_cast<size_t>(ai)];

    // Unify-and-descend for one candidate row; returns false to abort
    // the whole enumeration (callback stop), true to keep going.
    auto try_row = [&](int row) -> bool {
      TupleId id{rel, row};
      if (!db.IsActive(id)) return true;
      // Delta dedup: the pinned atom must be the first (query-order)
      // atom matching a changed tuple, so earlier atoms avoid them all.
      if (changed != nullptr && ai < pinned_atom && changed->count(id) > 0) {
        return true;
      }
      RowView t = db.Row(id);
      std::vector<VarId>& newly_bound = newly_bound_stack[depth];
      newly_bound.clear();
      bool ok = true;
      for (int c = 0; c < atom.arity() && ok; ++c) {
        VarId v = atom.vars[static_cast<size_t>(c)];
        Value cur = binding[static_cast<size_t>(v)];
        if (cur == -1) {
          binding[static_cast<size_t>(v)] = t[static_cast<size_t>(c)];
          newly_bound.push_back(v);
        } else if (cur != t[static_cast<size_t>(c)]) {
          ok = false;
        }
      }
      bool keep_going = true;
      if (ok) {
        matched[static_cast<size_t>(ai)] = id;
        keep_going = Recurse(depth + 1);
      }
      for (VarId v : newly_bound) binding[static_cast<size_t>(v)] = -1;
      return keep_going;
    };

    // Probe the index on the bound column with the smallest row chain —
    // any bound column is sound, the smallest one is the fewest candidate
    // rows to unify (ties go to the first such column). A bound value
    // with no row in its column means no row can match at all. With no
    // bound column, scan. A pinned atom has exactly one candidate row.
    if (ai == pinned_atom) {
      return try_row(pinned_tuple.row);
    }
    const ColumnChains* chains = nullptr;
    size_t best = 0;  // the probed value's slot in `chains`
    for (int c = 0; c < atom.arity(); ++c) {
      Value v =
          binding[static_cast<size_t>(atom.vars[static_cast<size_t>(c)])];
      if (v == -1) continue;
      const ColumnChains& col =
          indexes[static_cast<size_t>(rel)][static_cast<size_t>(c)];
      const size_t slot = static_cast<size_t>(v);
      if (slot >= col.count.size() || col.count[slot] == 0) return true;
      if (chains == nullptr || col.count[slot] < chains->count[best]) {
        chains = &col;
        best = slot;
      }
    }
    if (chains != nullptr) {
      for (int32_t r = chains->head[best]; r >= 0;
           r = chains->next[static_cast<size_t>(r)]) {
        if (!try_row(r)) return false;
      }
      return true;
    }
    for (int r = 0; r < db.NumRows(rel); ++r) {
      if (!try_row(r)) return false;
    }
    return true;
  }

  // Heap accounting (obs/memstats.h): every byte sits in a vector, so
  // this sums their geometry exactly — O(relations × arity + atoms)
  // bookkeeping, cheap enough to read per probe.
  size_t ApproxBytes() const {
    uint64_t bytes = obs::VectorBytes(indexes);
    for (const std::vector<ColumnChains>& columns : indexes) {
      bytes += obs::VectorBytes(columns);
      for (const ColumnChains& col : columns) {
        bytes += obs::VectorBytes(col.head) + obs::VectorBytes(col.tail) +
                 obs::VectorBytes(col.count) + obs::VectorBytes(col.next);
      }
    }
    bytes += obs::VectorBytes(atom_rel) + obs::VectorBytes(indexed_rows) +
             obs::VectorBytes(order) + obs::VectorBytes(binding) +
             obs::VectorBytes(matched) + obs::VectorBytes(placed_scratch) +
             obs::VectorBytes(var_bound_scratch) +
             obs::NestedVectorBytes(newly_bound_stack) +
             obs::VectorBytes(scratch.assignment) +
             obs::VectorBytes(scratch.atom_tuples) +
             obs::VectorBytes(scratch.endo_tuples);
    return static_cast<size_t>(bytes);
  }

  bool Emit() {
    scratch.assignment = binding;
    scratch.atom_tuples = matched;
    scratch.endo_tuples.clear();
    for (int i = 0; i < q.num_atoms(); ++i) {
      if (!q.atom(i).exogenous) {
        scratch.endo_tuples.push_back(matched[static_cast<size_t>(i)]);
      }
    }
    std::sort(scratch.endo_tuples.begin(), scratch.endo_tuples.end());
    scratch.endo_tuples.erase(
        std::unique(scratch.endo_tuples.begin(), scratch.endo_tuples.end()),
        scratch.endo_tuples.end());
    return visit(scratch);
  }
};

// WitnessIndex::ForEachDelta's pin loop; `e` must be prepared.
bool RunDelta(Enumerator& e, const std::vector<TupleId>& changed,
              WitnessVisitor visit) {
  // Deduplicate and order the changed tuples: the pin loop must try each
  // tuple once, and a deterministic order keeps enumeration reproducible.
  TupleIdSet changed_set(changed.begin(), changed.end());
  std::vector<TupleId> pins(changed_set.begin(), changed_set.end());
  std::sort(pins.begin(), pins.end());
  // Atom-major so consecutive pins share one cached visit order.
  e.InvalidateOrder();
  for (int i = 0; i < e.q.num_atoms(); ++i) {
    for (TupleId t : pins) {
      if (e.atom_rel[static_cast<size_t>(i)] != t.relation) continue;
      if (!e.db.IsActive(t)) continue;
      if (!e.RunPinned(i, t, changed_set, visit)) return false;
    }
  }
  return true;
}

}  // namespace

bool ForEachWitness(const Query& q, const Database& db, WitnessVisitor visit) {
  Enumerator e{q, db};
  if (!e.Prepare()) return true;  // a missing relation means no witnesses
  return e.RunAll(visit);
}

struct WitnessIndex::Impl {
  Impl(const Query& q, const Database& db) : e(q, db) { e.Prepare(); }
  Enumerator e;
};

WitnessIndex::WitnessIndex(const Query& q, const Database& db)
    : impl_(new Impl(q, db)) {}

WitnessIndex::~WitnessIndex() = default;

void WitnessIndex::SyncNewRows() { impl_->e.SyncIndexes(); }

bool WitnessIndex::ForEach(WitnessVisitor visit) {
  if (!impl_->e.prepared) return true;
  return impl_->e.RunAll(visit);
}

bool WitnessIndex::ForEachDelta(const std::vector<TupleId>& changed,
                                WitnessVisitor visit) {
  if (!impl_->e.prepared || changed.empty()) return true;
  return RunDelta(impl_->e, changed, visit);
}

size_t WitnessIndex::ApproxBytes() const { return impl_->e.ApproxBytes(); }

std::vector<Witness> EnumerateWitnesses(const Query& q, const Database& db,
                                        size_t limit) {
  std::vector<Witness> out;
  if (limit == 0) return out;
  ForEachWitness(q, db, [&](const Witness& w) {
    out.push_back(w);
    return out.size() < limit;
  });
  return out;
}

bool QueryHolds(const Query& q, const Database& db) {
  return !ForEachWitness(q, db, [](const Witness&) { return false; });
}

WitnessFamily CollectWitnessFamily(const Query& q, const Database& db,
                                   size_t witness_limit) {
  obs::Span span("enumerate", "witness");
  WitnessFamily family;
  ForEachWitness(q, db, [&](const Witness& w) {
    if (family.witnesses >= witness_limit) {
      // Only trips when a witness beyond the budget actually exists: an
      // instance with exactly `witness_limit` witnesses is complete.
      family.budget_exceeded = true;
      return false;
    }
    ++family.witnesses;
    if (w.endo_tuples.empty()) {
      // Unbreakable: no endogenous deletion kills this witness, so the
      // rest of the family is irrelevant — stop enumerating.
      family.unbreakable = true;
      return false;
    }
    family.arena.Intern(w.endo_tuples.data(), w.endo_tuples.size());
    return true;
  });
  // The interner assigns ids in first-appearance order; the family
  // surface is sorted lexicographically by content, the order the
  // legacy std::set<std::vector<TupleId>> produced (the fuzz sweeps
  // hold the two representations element-identical).
  family.sets.reserve(family.arena.num_spans());
  for (uint32_t id = 0; id < family.arena.num_spans(); ++id) {
    family.sets.push_back(family.arena.span(id));
  }
  std::sort(family.sets.begin(), family.sets.end(),
            [&](SetSpan a, SetSpan b) {
              return std::lexicographical_compare(
                  family.arena.data(a), family.arena.data(a) + a.len,
                  family.arena.data(b), family.arena.data(b) + b.len);
            });
  obs::Count("witness.enumerated", family.witnesses);
  obs::Count("witness.families");
  return family;
}

}  // namespace rescq
