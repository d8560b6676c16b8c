#include "db/delta.h"

#include "util/check.h"

namespace rescq {

size_t UpdateLog::size() const {
  size_t n = 0;
  for (const Epoch& e : epochs) n += e.updates.size();
  return n;
}

bool ValidateUpdateLog(const UpdateLog& log, const Database& db,
                       std::string* error) {
  UpdateArityCheck check;
  int epoch_no = 0;
  for (const Epoch& epoch : log.epochs) {
    ++epoch_no;
    for (const Update& u : epoch.updates) {
      if (!check.Admit(u, db, epoch_no, error)) return false;
    }
  }
  return true;
}

bool UpdateArityCheck::Admit(const Update& u, const Database& db,
                             int epoch_no, std::string* error) {
  if (u.relation.empty() || u.constants.empty()) {
    *error = "epoch " + std::to_string(epoch_no) +
             ": update with an empty relation or no constants";
    return false;
  }
  // The database's arity wins over the log's: a relation it has is
  // checked against it and never recorded here.
  int used = static_cast<int>(u.constants.size());
  int rel = db.RelationId(u.relation);
  int known = rel >= 0 ? db.relation_arity(rel)
                       : arity_.emplace(u.relation, used).first->second;
  if (known != used) {
    *error = "epoch " + std::to_string(epoch_no) + ": relation '" +
             u.relation + "' used with arity " + std::to_string(used) +
             ", but its other facts have arity " + std::to_string(known);
    return false;
  }
  return true;
}

std::optional<TupleId> ApplyUpdate(const Update& u, Database* db) {
  RESCQ_CHECK(!u.relation.empty() && !u.constants.empty());
  if (u.kind == UpdateKind::kDelete) {
    // Never interns: deleting an absent fact leaves the domain as is.
    std::optional<TupleId> existing =
        db->FindTupleByNames(u.relation, u.constants);
    if (!existing.has_value() || !db->IsActive(*existing)) {
      return std::nullopt;
    }
    db->SetActive(*existing, false);
    return existing;
  }

  std::vector<Value> row;
  row.reserve(u.constants.size());
  for (const std::string& c : u.constants) row.push_back(db->Intern(c));
  std::optional<TupleId> existing = db->FindTuple(u.relation, row);
  if (existing.has_value()) {
    if (db->IsActive(*existing)) return std::nullopt;
    db->SetActive(*existing, true);
    return existing;
  }
  return db->AddTuple(u.relation, row);
}

AppliedEpoch ApplyEpoch(const Epoch& epoch, Database* db) {
  AppliedEpoch applied;
  for (const Update& u : epoch.updates) {
    std::optional<TupleId> id = ApplyUpdate(u, db);
    if (!id.has_value()) continue;
    (u.kind == UpdateKind::kInsert ? applied.inserted : applied.deleted)
        .push_back(*id);
  }
  return applied;
}

}  // namespace rescq
