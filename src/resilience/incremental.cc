#include "resilience/incremental.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/exact_solver.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/disjoint_set.h"

namespace rescq {

namespace {

std::string WitnessBudgetError(size_t limit) {
  return "witness budget exceeded (witness_limit=" + std::to_string(limit) +
         "): the maintained witness family is incomplete and the session "
         "cannot answer";
}

}  // namespace

int IncrementalSession::DenseId(TupleId t) {
  auto [it, inserted] =
      dense_ids_.emplace(t, static_cast<int>(dense_tuples_.size()));
  if (inserted) {
    dense_tuples_.push_back(t);
    comp_label_.push_back(-1);
  }
  return it->second;
}

void IncrementalSession::TouchSet(const std::vector<TupleId>& endo_tuples,
                                  int64_t sign) {
  const uint32_t id =
      family_arena_.Intern(endo_tuples.data(), endo_tuples.size());
  if (id == set_states_.size()) {
    // First appearance: extend the flat per-set state and mirror the
    // new arena run into dense element ids (same offsets).
    set_states_.emplace_back();
    for (TupleId t : endo_tuples) dense_pool_.push_back(DenseId(t));
    if (endo_tuples.empty()) empty_set_id_ = static_cast<int32_t>(id);
  }
  SetState& state = set_states_[id];
  const bool was_dead = state.count == 0;
  state.count += sign;
  RESCQ_CHECK(state.count >= 0);
  const uint32_t len = SetLen(static_cast<int32_t>(id));
  if (len == 0) return;  // the unbreakable key joins no component
  if (was_dead && state.count > 0) {
    // Newly live — first appearance or a revival: it may attach to (or
    // bridge) the components its elements currently live in — flag
    // them for dissolution.
    const int* e = DenseBegin(static_cast<int32_t>(id));
    for (uint32_t i = 0; i < len; ++i) {
      int label = comp_label_[static_cast<size_t>(e[i])];
      if (label >= 0) affected_labels_.push_back(label);
    }
    state.label = -1;
    state.label_slot = static_cast<int>(fresh_sets_.size());
    fresh_sets_.push_back(static_cast<int32_t>(id));
    ++live_sets_;
  } else if (!was_dead && state.count == 0) {
    // Died: tombstone wherever the set currently sits. Its span stays
    // in the arena — a later revival reuses the same SetId.
    if (state.label >= 0) {
      affected_labels_.push_back(state.label);
      auto comp = components_.find(state.label);
      RESCQ_CHECK(comp != components_.end());
      comp->second.sets[static_cast<size_t>(state.label_slot)] = -1;
    } else {
      fresh_sets_[static_cast<size_t>(state.label_slot)] = -1;
    }
    state.label = -1;
    state.label_slot = -1;
    --live_sets_;
  }
}

bool IncrementalSession::ShiftSupport(const std::vector<TupleId>& changed,
                                      int64_t sign, EpochOutcome* out) {
  const size_t limit = options_.witness_cap();
  bool ok = true;
  index_->ForEachDelta(changed, [&](const Witness& w) {
    if (out->delta_witnesses >= limit) {
      poisoned_ = true;
      poison_error_ = WitnessBudgetError(options_.witness_limit);
      ok = false;
      return false;
    }
    ++out->delta_witnesses;
    TouchSet(w.endo_tuples, sign);
    return true;
  });
  return ok;
}

void IncrementalSession::AdoptComponent(int label, Component component) {
  total_size_ += component.size;
  total_lower_ += component.lower;
  if (!component.proven) ++unproven_components_;
  bool inserted = components_.emplace(label, std::move(component)).second;
  RESCQ_CHECK(inserted);
}

IncrementalSession::IncrementalSession(const Query& q, Database base,
                                       ExactOptions options)
    : q_(q), db_(std::move(base)), options_(options) {
  Clock::time_point start = Clock::now();
  index_.reset(new WitnessIndex(q_, db_));
  last_.epoch = 0;
  const size_t limit = options_.witness_cap();
  // Full build: count the support of every endogenous set. Unlike
  // CollectWitnessFamily this cannot short-circuit on an unbreakable
  // witness — deletions may later revive the query's breakability, and
  // the rest of the family must be live by then.
  index_->ForEach([&](const Witness& w) {
    if (last_.delta_witnesses >= limit) {
      poisoned_ = true;
      poison_error_ = WitnessBudgetError(options_.witness_limit);
      return false;
    }
    ++last_.delta_witnesses;
    TouchSet(w.endo_tuples, +1);
    return true;
  });
  Refresh(&last_);
  last_.wall_ms = MsSince(start);
  if (obs::MetricsEnabled()) obs::PublishMemBreakdown(ApproxMemory());
}

size_t IncrementalSession::EvictColdState() {
  if (index_ == nullptr) return 0;
  size_t freed = index_->ApproxBytes() +
                 static_cast<size_t>(obs::VectorBytes(global_to_local_));
  index_.reset();
  std::vector<int>().swap(global_to_local_);
  ++evictions_;
  obs::Count("mem.evictions");
  return freed;
}

EpochOutcome IncrementalSession::Apply(const Epoch& epoch) {
  obs::Span span("epoch-apply", "incremental");
  obs::Count("incremental.epochs");
  obs::Count("incremental.updates", epoch.updates.size());
  Clock::time_point start = Clock::now();
  EpochOutcome out;
  out.epoch = ++epoch_count_;

  // Lazy rebuild after an eviction: a fresh index over the current
  // database enumerates exactly what the dropped, synced one would —
  // activity is checked at probe time and appended rows are indexed on
  // construction — so the delta streams below pick up mid-session as
  // if nothing happened. (A poisoned session skips the rebuild: its
  // batches never stream.)
  if (index_ == nullptr && !poisoned_) {
    index_.reset(new WitnessIndex(q_, db_));
    ++rebuilds_;
    obs::Count("mem.rebuilds");
  }

  // Within an epoch, the last update of each fact wins: activity is
  // last-writer, and the support invariant (the family = the witness
  // family of the current database, restored after every batch) only
  // depends on the final database state — so an insert-then-delete of
  // an initially absent fact nets to nothing, exactly as if the
  // sequence had been applied one by one.
  //
  // Each update is resolved to its TupleId once, before anything
  // changes, and the known facts are netted over sorted (tuple, seq)
  // pairs. Only facts the database lacks are keyed by name; they
  // become new rows, in the order of their first appearance, when
  // their last update inserts them (so tuple ids and interned values
  // are those of applying the netted updates in first-appearance
  // order). The netted epoch then coalesces into one insert batch and
  // one delete batch: a batch of inserts is activated first and its
  // incident witnesses arrive with +1 support; a batch of deletions
  // streams its incident witnesses *while still active* with -1
  // support, then deactivates. Each witness born or killed by a batch
  // is visited exactly once (ForEachDelta's first-changed-atom rule).
  if (!poisoned_) {
    std::vector<std::pair<uint64_t, uint32_t>> known;  // (tuple, seq)
    std::vector<const Update*> fresh;  // facts db_ lacks, first appearance
    std::unordered_map<std::string, size_t> fresh_slot;  // fact key -> slot
    known.reserve(epoch.updates.size());
    std::string key;
    for (uint32_t seq = 0; seq < epoch.updates.size(); ++seq) {
      const Update& u = epoch.updates[seq];
      std::optional<TupleId> id = db_.FindTupleByNames(u.relation,
                                                       u.constants);
      if (id.has_value()) {
        known.emplace_back(PackTupleId(*id), seq);
        continue;
      }
      key = u.relation;
      for (const std::string& c : u.constants) {
        key += '\x01';
        key += c;
      }
      auto [it, inserted] = fresh_slot.emplace(key, fresh.size());
      if (inserted) {
        fresh.push_back(&u);
      } else {
        fresh[it->second] = &u;
      }
    }
    std::sort(known.begin(), known.end());

    std::vector<TupleId> inserts, deletes;
    for (size_t k = 0; k < known.size(); ++k) {
      if (k + 1 < known.size() && known[k + 1].first == known[k].first) {
        continue;  // a later update of the same fact wins
      }
      const TupleId t = UnpackTupleId(known[k].first);
      if (epoch.updates[known[k].second].kind == UpdateKind::kInsert) {
        if (!db_.IsActive(t)) inserts.push_back(t);
      } else if (db_.IsActive(t)) {
        deletes.push_back(t);
      }
    }
    for (TupleId t : inserts) db_.SetActive(t, true);
    for (const Update* u : fresh) {
      if (u->kind == UpdateKind::kInsert) {
        inserts.push_back(*ApplyUpdate(*u, &db_));
      }
    }
    // The delta streams take each batch in ascending tuple order
    // (`deletes` already is: it comes out of `known`).
    std::sort(inserts.begin(), inserts.end());
    if (!inserts.empty()) {
      out.inserted = static_cast<int>(inserts.size());
      index_->SyncNewRows();  // the batch may have appended rows
      ShiftSupport(inserts, +1, &out);
    }
    if (!deletes.empty() && !poisoned_) {
      out.deleted = static_cast<int>(deletes.size());
      ShiftSupport(deletes, -1, &out);
      for (TupleId t : deletes) db_.SetActive(t, false);
    }
  }

  Refresh(&out);
  out.wall_ms = MsSince(start);
  obs::ObserveLatencyMs("incremental.epoch_ms", out.wall_ms);
  if (obs::MetricsEnabled()) obs::PublishMemBreakdown(ApproxMemory());
  last_ = out;
  return out;
}

obs::MemBreakdown IncrementalSession::ApproxMemory() const {
  obs::MemBreakdown mem;
  mem.index_bytes = index_ != nullptr ? index_->ApproxBytes() : 0;

  mem.family_bytes = family_arena_.ApproxBytes() +
                     obs::VectorBytes(dense_pool_) +
                     obs::VectorBytes(set_states_);
  mem.family_bytes += obs::HashContainerBytes(dense_ids_);
  mem.family_bytes += obs::VectorBytes(dense_tuples_);
  mem.arena_reserved_bytes = family_arena_.ReservedBytes();
  mem.arena_live_bytes = family_arena_.LiveBytes();

  mem.component_bytes = obs::HashContainerBytes(components_);
  for (const auto& [label, comp] : components_) {
    mem.component_bytes +=
        obs::VectorBytes(comp.sets) + obs::VectorBytes(comp.solution);
  }
  mem.component_bytes += obs::VectorBytes(comp_label_);
  mem.component_bytes += obs::VectorBytes(global_to_local_);

  mem.tuples = static_cast<size_t>(db_.NumActiveTuples());
  mem.witness_sets = static_cast<size_t>(live_sets_);
  return mem;
}

void IncrementalSession::Refresh(EpochOutcome* out) {
  const bool unbreakable =
      empty_set_id_ >= 0 &&
      set_states_[static_cast<size_t>(empty_set_id_)].count > 0;
  out->family_sets = static_cast<size_t>(live_sets_);

  if (poisoned_) {
    affected_labels_.clear();
    fresh_sets_.clear();
    out->budget_exceeded = true;
    out->error = poison_error_;
    return;
  }

  // Dissolve the touched components and collect the region to rebuild:
  // their surviving sets and this epoch's fresh sets. Components outside
  // the region are untouched and keep their records, so the work below
  // scales with the churn's footprint. This runs even while the query is
  // unbreakable: the decomposition must be current the moment
  // breakability resumes.
  std::sort(affected_labels_.begin(), affected_labels_.end());
  affected_labels_.erase(
      std::unique(affected_labels_.begin(), affected_labels_.end()),
      affected_labels_.end());
  std::vector<int32_t> region;  // SetIds
  for (int label : affected_labels_) {
    auto it = components_.find(label);
    if (it == components_.end()) continue;  // stale element label
    for (int32_t s : it->second.sets) {
      if (s >= 0) region.push_back(s);
    }
    total_size_ -= it->second.size;
    total_lower_ -= it->second.lower;
    if (!it->second.proven) --unproven_components_;
    components_.erase(it);
  }
  for (int32_t s : fresh_sets_) {
    if (s >= 0) region.push_back(s);
  }
  affected_labels_.clear();
  fresh_sets_.clear();

  if (!region.empty()) {
    // Local dense ids over the region. The localized region is itself a
    // span family — one pool, no per-set vectors — and the exact
    // solver's input.
    if (global_to_local_.size() < dense_tuples_.size()) {
      global_to_local_.resize(dense_tuples_.size(), -1);
    }
    std::vector<int> local_to_dense;
    HittingSetFamily region_local;
    region_local.pool.reserve(region.size() * 2);
    region_local.sets.reserve(region.size());
    for (int32_t id : region) {
      const uint32_t offset = static_cast<uint32_t>(region_local.pool.size());
      const int* e = DenseBegin(id);
      const uint32_t len = SetLen(id);
      for (uint32_t i = 0; i < len; ++i) {
        int& slot = global_to_local_[static_cast<size_t>(e[i])];
        if (slot < 0) {
          slot = static_cast<int>(local_to_dense.size());
          local_to_dense.push_back(e[i]);
        }
        region_local.pool.push_back(slot);
      }
      region_local.sets.push_back(SetSpan{offset, len});
    }
    DisjointSet dsu(static_cast<int>(local_to_dense.size()));
    for (size_t s = 0; s < region_local.size(); ++s) {
      const int* p = region_local.begin(s);
      for (size_t j = 1; j < region_local.len(s); ++j) {
        dsu.Union(p[0], p[static_cast<size_t>(j)]);
      }
    }
    // Group region sets into the new components, first-seen order.
    std::vector<int> root_group(local_to_dense.size(), -1);
    std::vector<Component> comps;
    for (size_t s = 0; s < region.size(); ++s) {
      int& g = root_group[static_cast<size_t>(
          dsu.Find(region_local.begin(s)[0]))];
      if (g < 0) {
        g = static_cast<int>(comps.size());
        comps.emplace_back();
      }
      comps[static_cast<size_t>(g)].sets.push_back(region[s]);
    }

    // Label the new components. A label is the component's minimum
    // dense element: unique per component, stable while the component
    // is untouched.
    std::vector<int> labels(comps.size());
    for (size_t g = 0; g < comps.size(); ++g) {
      const std::vector<int32_t>& sets = comps[g].sets;
      int label = std::numeric_limits<int>::max();
      for (int32_t id : sets) {
        const int* e = DenseBegin(id);
        label = std::min(label, *std::min_element(e, e + SetLen(id)));
      }
      for (size_t k = 0; k < sets.size(); ++k) {
        SetState& state = set_states_[static_cast<size_t>(sets[k])];
        state.label = label;
        state.label_slot = static_cast<int>(k);
        const int* e = DenseBegin(sets[k]);
        for (uint32_t i = 0; i < SetLen(sets[k]); ++i) {
          comp_label_[static_cast<size_t>(e[i])] = label;
        }
      }
      labels[g] = label;
    }

    // One exact solve over the whole region. Its components refine
    // these (its reduction can only drop elements), so each chosen
    // element belongs to exactly one new component, and a minimum
    // hitting set of the region restricts to a minimum one of each
    // component.
    ExactStats stats;
    HittingSetResult hs = SolveMinHittingSet(region_local, options_, &stats);
    // Every component takes its root node; more means some search
    // branched.
    out->resolved = stats.nodes > static_cast<uint64_t>(stats.components);
    if (out->resolved) obs::Count("incremental.hard_solves");
    for (int e : hs.chosen) {
      const int g = root_group[static_cast<size_t>(dsu.Find(e))];
      comps[static_cast<size_t>(g)].solution.push_back(
          local_to_dense[static_cast<size_t>(e)]);
    }

    obs::Span adopt_span("adopt", "incremental");
    std::vector<int> sub_ids;  // region-local -> component-local ids
    if (!hs.proven_optimal) sub_ids.assign(local_to_dense.size(), -1);
    for (size_t g = 0; g < comps.size(); ++g) {
      Component& comp = comps[g];
      std::sort(comp.solution.begin(), comp.solution.end());
      comp.size = static_cast<int>(comp.solution.size());
      comp.lower = comp.size;
      if (!hs.proven_optimal) {
        // The budget stopped the search somewhere in the region: certify
        // each component with the root bound on its own sets, which may
        // still meet the feasible answer.
        HittingSetFamily sub;
        int next = 0;
        for (int32_t id : comp.sets) {
          const uint32_t offset = static_cast<uint32_t>(sub.pool.size());
          const int* e = DenseBegin(id);
          for (uint32_t i = 0; i < SetLen(id); ++i) {
            int& sub_id = sub_ids[static_cast<size_t>(
                global_to_local_[static_cast<size_t>(e[i])])];
            if (sub_id < 0) sub_id = next++;
            sub.pool.push_back(sub_id);
          }
          sub.sets.push_back(SetSpan{offset, SetLen(id)});
        }
        comp.lower = HittingSetLowerBound(sub);
        comp.proven = comp.lower == comp.size;
      }
      AdoptComponent(labels[g], std::move(comp));
    }
    for (int e : local_to_dense) {
      global_to_local_[static_cast<size_t>(e)] = -1;
    }
  }

  if (unbreakable) {
    // Some live witness uses no endogenous tuple: resilience is
    // undefined until deletions kill every such witness. The
    // decomposition keeps being maintained so the session can resume.
    out->unbreakable = true;
    return;
  }

  out->resilience = total_size_;
  out->upper_bound = total_size_;
  out->lower_bound = total_lower_;
  if (unproven_components_ > 0) {
    out->budget_exceeded = true;
    out->error = "exact node budget exhausted: resilience is an upper bound";
  }

  out->contingency.reserve(static_cast<size_t>(total_size_));
  for (const auto& [label, comp] : components_) {
    for (int e : comp.solution) {
      out->contingency.push_back(dense_tuples_[static_cast<size_t>(e)]);
    }
  }
  std::sort(out->contingency.begin(), out->contingency.end());
}

}  // namespace rescq
