#include "workload/churn.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "util/check.h"
#include "util/rng.h"

namespace rescq {

namespace {

Update MakeDelete(const Database& db, TupleId t) {
  Update u;
  u.kind = UpdateKind::kDelete;
  u.relation = db.relation_name(t.relation);
  for (Value v : db.Row(t)) u.constants.push_back(db.ValueName(v));
  return u;
}

// The stream applied so far, with the live-tuple list and per-constant
// occurrence counts maintained incrementally — a generator draw is O(1)
// (plus O(domain) for the hub argmax), never a database rescan.
struct ChurnGenerator {
  const std::string& kind;
  Rng rng;
  Database working;
  int fresh = 0;  // counter for fresh constant names

  std::vector<TupleId> active;
  std::unordered_map<TupleId, size_t, TupleIdHash> active_pos;
  std::vector<int64_t> freq;  // per Value: occurrences in live tuples

  void Init() {
    for (int rel = 0; rel < working.num_relations(); ++rel) {
      for (TupleId t : working.ActiveTuples(rel)) Track(t, +1);
    }
  }

  void Track(TupleId t, int sign) {
    if (sign > 0) {
      active_pos[t] = active.size();
      active.push_back(t);
    } else {
      size_t pos = active_pos.at(t);
      active_pos[active.back()] = pos;
      std::swap(active[pos], active.back());
      active.pop_back();
      active_pos.erase(t);
    }
    if (freq.size() < static_cast<size_t>(working.domain_size())) {
      freq.resize(static_cast<size_t>(working.domain_size()), 0);
    }
    for (Value v : working.Row(t)) freq[static_cast<size_t>(v)] += sign;
  }

  /// Applies the update to the working copy and the bookkeeping.
  void Apply(const Update& u) {
    const UpdateKind k = u.kind;
    std::optional<TupleId> id = ApplyUpdate(u, &working);
    if (id.has_value()) Track(*id, k == UpdateKind::kInsert ? +1 : -1);
  }

  /// The most frequent constant among the live tuples; -1 when empty.
  Value Hub() const {
    Value hub = -1;
    int64_t best = 0;
    for (size_t v = 0; v < freq.size(); ++v) {
      if (freq[v] > best) {
        best = freq[v];
        hub = static_cast<Value>(v);
      }
    }
    return hub;
  }

  /// A new fact for `rel` (db relation id): existing constants with an
  /// occasional fresh one; `forced` (if >= 0) is planted at a random
  /// position. Retries a few times to avoid already-active facts; a
  /// stubbornly dense relation yields nullopt (the update is skipped).
  std::optional<Update> MakeInsert(int rel, Value forced) {
    const int arity = working.relation_arity(rel);
    for (int attempt = 0; attempt < 8; ++attempt) {
      Update u;
      u.kind = UpdateKind::kInsert;
      u.relation = working.relation_name(rel);
      std::vector<Value> row;
      for (int c = 0; c < arity; ++c) {
        if (rng.Chance(1, 8)) {
          row.push_back(working.Intern("new" + std::to_string(fresh++)));
        } else {
          row.push_back(static_cast<Value>(
              rng.Below(static_cast<uint64_t>(working.domain_size()))));
        }
      }
      if (forced >= 0) {
        row[rng.Below(static_cast<uint64_t>(arity))] = forced;
      }
      std::optional<TupleId> existing = working.FindTuple(u.relation, row);
      if (existing.has_value() && working.IsActive(*existing)) continue;
      for (Value v : row) u.constants.push_back(working.ValueName(v));
      return u;
    }
    return std::nullopt;
  }

  std::optional<Update> NextUpdate() {
    const bool can_delete = !active.empty();
    const bool can_insert = working.num_relations() > 0;
    if (!can_insert && !can_delete) return std::nullopt;

    auto random_insert = [&](Value forced) -> std::optional<Update> {
      if (!can_insert) return std::nullopt;
      int rel = static_cast<int>(
          rng.Below(static_cast<uint64_t>(working.num_relations())));
      return MakeInsert(rel, forced);
    };
    auto random_delete = [&]() -> std::optional<Update> {
      if (!can_delete) return std::nullopt;
      return MakeDelete(working, active[rng.Below(active.size())]);
    };

    if (kind == "insert") return random_insert(-1);
    if (kind == "delete") return random_delete();
    if (kind == "mixed") {
      if (can_delete && (!can_insert || rng.Chance(1, 2))) {
        return random_delete();
      }
      return random_insert(-1);
    }

    RESCQ_CHECK(kind == "hub");
    Value hub = Hub();
    if (hub < 0) return std::nullopt;
    if (can_insert && (!can_delete || rng.Chance(1, 2))) {
      // A dense relation can reject every forced-hub fact (a unary
      // R(hub) exists exactly once); fall back to deleting at the hub
      // instead of stalling the epoch.
      std::optional<Update> u = random_insert(hub);
      if (u.has_value()) return u;
    }
    // Delete among the hub's facts: rejection-sample the live list (a
    // hub by definition sits in many of them), with a full scan as the
    // deterministic fallback for sparse hubs.
    for (int attempt = 0; attempt < 32 && can_delete; ++attempt) {
      TupleId t = active[rng.Below(active.size())];
      RowView row = working.Row(t);
      if (std::find(row.begin(), row.end(), hub) != row.end()) {
        return MakeDelete(working, t);
      }
    }
    std::vector<TupleId> touching;
    for (TupleId t : active) {
      RowView row = working.Row(t);
      if (std::find(row.begin(), row.end(), hub) != row.end()) {
        touching.push_back(t);
      }
    }
    if (touching.empty()) return random_delete();
    return MakeDelete(working, touching[rng.Below(touching.size())]);
  }
};

}  // namespace

const std::vector<ChurnKind>& ChurnCatalog() {
  static const std::vector<ChurnKind>* kCatalog = new std::vector<ChurnKind>{
      {"insert", "insert-only churn: new facts over the existing domain"},
      {"delete", "delete-only churn: random live facts are removed"},
      {"mixed", "a fair coin per update between insert and delete"},
      {"hub", "updates target the most frequent constant (skewed load)"},
  };
  return *kCatalog;
}

std::vector<std::string> AllChurnNames() {
  std::vector<std::string> names;
  for (const ChurnKind& k : ChurnCatalog()) names.push_back(k.name);
  return names;
}

bool IsChurnKind(const std::string& name) {
  for (const ChurnKind& k : ChurnCatalog()) {
    if (k.name == name) return true;
  }
  return false;
}

UpdateLog GenerateChurn(const Database& base, const std::string& kind,
                        const ChurnParams& params) {
  RESCQ_CHECK(IsChurnKind(kind));
  UpdateLog log;
  ChurnGenerator gen{kind, Rng(params.seed), base, 0, {}, {}, {}};
  gen.Init();
  for (int e = 0; e < params.epochs; ++e) {
    Epoch epoch;
    const int budget = std::max(
        1,
        static_cast<int>(std::lround(params.rate *
                                     static_cast<double>(gen.active.size()))));
    for (int u = 0; u < budget; ++u) {
      std::optional<Update> update = gen.NextUpdate();
      if (!update.has_value()) continue;  // e.g. nothing left to delete
      gen.Apply(*update);
      epoch.updates.push_back(std::move(*update));
    }
    log.epochs.push_back(std::move(epoch));
  }
  return log;
}

}  // namespace rescq
