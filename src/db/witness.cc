#include "db/witness.h"

#include <algorithm>
#include <set>
#include <unordered_map>
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

// One posting list: a chain of segments inside the enumerator's shared
// row pool. A segment at pool offset s is [next, cap, row...] — `next`
// the offset of the following segment (-1 at the tail), `cap` its row
// capacity. Chains grow geometrically, so a value with many rows costs
// O(log rows) segments and a value with few costs one tiny one; rows
// iterate in append order, exactly the order the legacy per-value
// std::vector produced.
struct Posting {
  int32_t count = 0;      // rows in the chain
  int32_t head = -1;      // first segment offset, -1 = empty
  int32_t tail = -1;      // last segment offset
  int32_t tail_used = 0;  // rows used in the tail segment
};

constexpr int32_t kFirstSegmentRows = 4;
constexpr int32_t kMaxSegmentRows = 1024;

// Per-relation index: for each column, value -> posting chain (active
// rows are not distinguished here; activity is checked at probe time so
// the index can be built once per enumeration).
struct ColumnIndex {
  std::vector<std::unordered_map<Value, Posting>> by_column;
};

// Streaming witness enumerator. Prepare() resolves relations and builds
// the column indexes once; RunAll() enumerates every witness, and
// RunPinned() enumerates only witnesses whose *first* changed atom (in
// query order) is a given (atom, tuple) pair — the building block of
// ForEachDeltaWitness, sharing the prepared indexes across pins.
struct Enumerator {
  Enumerator(const Query& query, const Database& database)
      : q(query), db(database) {}

  const Query& q;
  const Database& db;

  std::vector<int> atom_rel;              // db relation id per atom
  std::vector<ColumnIndex> indexes;       // per db relation id
  std::vector<int32_t> pool;              // shared posting-segment pool
  size_t posting_keys = 0;                // live (column, value) postings
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

  void AppendRow(Posting& p, int32_t row) {
    if (p.tail < 0 ||
        p.tail_used == pool[static_cast<size_t>(p.tail) + 1]) {
      const int32_t cap =
          p.tail < 0 ? kFirstSegmentRows
                     : std::min<int32_t>(
                           2 * pool[static_cast<size_t>(p.tail) + 1],
                           kMaxSegmentRows);
      const int32_t seg = static_cast<int32_t>(pool.size());
      pool.push_back(-1);   // next
      pool.push_back(cap);  // capacity
      pool.resize(pool.size() + static_cast<size_t>(cap));
      if (p.tail < 0) {
        p.head = seg;
      } else {
        pool[static_cast<size_t>(p.tail)] = seg;
      }
      p.tail = seg;
      p.tail_used = 0;
    }
    pool[static_cast<size_t>(p.tail) + 2 +
         static_cast<size_t>(p.tail_used)] = row;
    ++p.tail_used;
    ++p.count;
  }

  void IndexRow(ColumnIndex& idx, int rel, int row) {
    RowView t = db.Row(TupleId{rel, row});
    const int arity = db.relation_arity(rel);
    for (int c = 0; c < arity; ++c) {
      auto [it, inserted] =
          idx.by_column[static_cast<size_t>(c)].emplace(
              t[static_cast<size_t>(c)], Posting{});
      if (inserted) ++posting_keys;
      AppendRow(it->second, row);
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

  /// Appends rows added since BuildIndexes / the last sync to the
  /// posting lists (only for relations the query touches); retries the
  /// full Prepare when it failed before.
  void SyncIndexes() {
    if (!prepared) {
      Prepare();
      return;
    }
    std::set<int> needed(atom_rel.begin(), atom_rel.end());
    for (int rel : needed) {
      ColumnIndex& idx = indexes[static_cast<size_t>(rel)];
      for (int row = indexed_rows[static_cast<size_t>(rel)];
           row < db.NumRows(rel); ++row) {
        IndexRow(idx, rel, row);
      }
      indexed_rows[static_cast<size_t>(rel)] = db.NumRows(rel);
    }
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
    indexes.assign(static_cast<size_t>(db.num_relations()), ColumnIndex{});
    indexed_rows.assign(static_cast<size_t>(db.num_relations()), 0);
    pool.clear();
    posting_keys = 0;
    std::set<int> needed(atom_rel.begin(), atom_rel.end());
    for (int rel : needed) {
      ColumnIndex& idx = indexes[static_cast<size_t>(rel)];
      idx.by_column.resize(static_cast<size_t>(db.relation_arity(rel)));
      for (int row = 0; row < db.NumRows(rel); ++row) {
        IndexRow(idx, rel, row);
      }
      indexed_rows[static_cast<size_t>(rel)] = db.NumRows(rel);
    }
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

    // Probe the index on the bound column with the smallest posting
    // chain — any bound column is sound, the smallest one is the fewest
    // candidate rows to unify. A bound value absent from its column
    // means no row can match at all. With no bound column, scan. A
    // pinned atom has exactly one candidate row.
    if (ai == pinned_atom) {
      return try_row(pinned_tuple.row);
    }
    const Posting* posting = nullptr;
    for (int c = 0; c < atom.arity(); ++c) {
      Value v =
          binding[static_cast<size_t>(atom.vars[static_cast<size_t>(c)])];
      if (v == -1) continue;
      const auto& column =
          indexes[static_cast<size_t>(rel)].by_column[static_cast<size_t>(c)];
      auto it = column.find(v);
      if (it == column.end()) return true;  // no matching row exists
      if (posting == nullptr || it->second.count < posting->count) {
        posting = &it->second;
      }
    }
    if (posting != nullptr) {
      for (int32_t seg = posting->head; seg >= 0;
           seg = pool[static_cast<size_t>(seg)]) {
        const int32_t used = seg == posting->tail
                                 ? posting->tail_used
                                 : pool[static_cast<size_t>(seg) + 1];
        for (int32_t i = 0; i < used; ++i) {
          if (!try_row(pool[static_cast<size_t>(seg) + 2 +
                            static_cast<size_t>(i)])) {
            return false;
          }
        }
      }
      return true;
    }
    for (int r = 0; r < db.NumRows(rel); ++r) {
      if (!try_row(r)) return false;
    }
    return true;
  }

  // Geometry-based heap accounting (obs/memstats.h): the posting pool is
  // one tracked arena and the per-column maps are approximated from the
  // tracked key count, so this is O(relations + atoms) bookkeeping, not
  // a walk of the postings — cheap enough to read per probe.
  size_t ApproxBytes() const {
    uint64_t bytes = obs::VectorBytes(pool) + obs::VectorBytes(indexes);
    for (const ColumnIndex& idx : indexes) {
      bytes += obs::VectorBytes(idx.by_column);
    }
    // Per (column, value) key: the map's value_type, two pointers of
    // node overhead, and ~one bucket slot (libstdc++ keeps the load
    // factor near 1) — the HashContainerBytes convention, from the
    // tracked count instead of a map walk.
    bytes += static_cast<uint64_t>(posting_keys) *
             (sizeof(std::pair<const Value, Posting>) + 3 * sizeof(void*));
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

// Pin-loop shared by the one-shot ForEachDeltaWitness and
// WitnessIndex::ForEachDelta; `e` must be prepared.
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

bool ForEachDeltaWitness(const Query& q, const Database& db,
                         const std::vector<TupleId>& changed,
                         WitnessVisitor visit) {
  if (changed.empty()) return true;
  Enumerator e{q, db};
  if (!e.Prepare()) return true;
  return RunDelta(e, changed, visit);
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
