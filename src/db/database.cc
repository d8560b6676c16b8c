#include "db/database.h"

#include <algorithm>

#include "util/check.h"

namespace rescq {

size_t Database::RelationData::Probe(const Value* row) const {
  const size_t mask = index.size() - 1;
  for (size_t slot = HashValues(row, static_cast<size_t>(arity)) & mask;;
       slot = (slot + 1) & mask) {
    const int32_t r = index[slot];
    if (r < 0 || std::equal(row, row + arity, this->row(r))) return slot;
  }
}

void Database::RelationData::GrowIndex() {
  index.assign(std::max<size_t>(8, 2 * index.size()), -1);
  for (int r = 0; r < num_rows(); ++r) index[Probe(row(r))] = r;
}

Value Database::Intern(const std::string& name) {
  auto [it, inserted] =
      value_ids_.try_emplace(name, static_cast<Value>(value_names_.size()));
  if (inserted) value_names_.push_back(name);
  return it->second;
}

Value Database::InternIndexed(const std::string& prefix, int i) {
  return Intern(prefix + '_' + std::to_string(i));
}

const std::string& Database::ValueName(Value v) const {
  return value_names_[static_cast<size_t>(v)];
}

int Database::AddRelation(const std::string& name, int arity) {
  const int existing = RelationId(name);
  if (existing >= 0) {
    RESCQ_CHECK_EQ(relations_[static_cast<size_t>(existing)].arity, arity);
    return existing;
  }
  const int id = static_cast<int>(relations_.size());
  RelationData data;
  data.name = name;
  data.arity = arity;
  relations_.push_back(std::move(data));
  relation_ids_.emplace(name, id);
  return id;
}

int Database::RelationId(const std::string& name) const {
  // Comparing a few short names costs less than hashing one on every
  // AddTuple, so a database of up to kScannedRelations relations (every
  // generated one) is scanned. A larger one, e.g. a loaded base that
  // names many relations, keeps one hash lookup per call.
  if (relations_.size() <= kScannedRelations) {
    for (size_t rel = 0; rel < relations_.size(); ++rel) {
      if (relations_[rel].name == name) return static_cast<int>(rel);
    }
    return -1;
  }
  auto it = relation_ids_.find(name);
  return it == relation_ids_.end() ? -1 : it->second;
}

const std::string& Database::relation_name(int rel) const {
  return relations_[static_cast<size_t>(rel)].name;
}

int Database::relation_arity(int rel) const {
  return relations_[static_cast<size_t>(rel)].arity;
}

TupleId Database::AddTuple(const std::string& relation,
                           const std::vector<Value>& values) {
  int rel = AddRelation(relation, static_cast<int>(values.size()));
  RelationData& data = relations_[static_cast<size_t>(rel)];
  if (data.index.empty()) data.GrowIndex();
  size_t slot = data.Probe(values.data());
  if (data.index[slot] >= 0) return TupleId{rel, data.index[slot]};
  const int row = data.num_rows();
  if (2 * (static_cast<size_t>(row) + 1) > data.index.size()) {
    data.GrowIndex();
    slot = data.Probe(values.data());
  }
  data.values.insert(data.values.end(), values.begin(), values.end());
  data.active.push_back(true);
  data.index[slot] = row;
  ++num_active_;
  return TupleId{rel, row};
}

std::optional<TupleId> Database::FindTuple(
    const std::string& relation, const std::vector<Value>& values) const {
  int rel = RelationId(relation);
  if (rel < 0) return std::nullopt;
  const RelationData& data = relations_[static_cast<size_t>(rel)];
  if (static_cast<int>(values.size()) != data.arity || data.index.empty()) {
    return std::nullopt;
  }
  const int32_t row = data.index[data.Probe(values.data())];
  if (row < 0) return std::nullopt;
  return TupleId{rel, row};
}

std::optional<TupleId> Database::FindTupleByNames(
    const std::string& relation,
    const std::vector<std::string>& constants) const {
  std::vector<Value> values;
  values.reserve(constants.size());
  for (const std::string& c : constants) {
    auto it = value_ids_.find(c);
    if (it == value_ids_.end()) return std::nullopt;
    values.push_back(it->second);
  }
  return FindTuple(relation, values);
}

int Database::NumRows(int rel) const {
  return relations_[static_cast<size_t>(rel)].num_rows();
}

bool Database::IsActive(TupleId id) const {
  return relations_[static_cast<size_t>(id.relation)]
      .active[static_cast<size_t>(id.row)];
}

void Database::SetActive(TupleId id, bool active) {
  std::vector<bool>::reference slot =
      relations_[static_cast<size_t>(id.relation)]
          .active[static_cast<size_t>(id.row)];
  if (slot == active) return;
  slot = active;
  num_active_ += active ? 1 : -1;
}

void Database::ActivateAll() {
  num_active_ = 0;
  for (RelationData& data : relations_) {
    std::fill(data.active.begin(), data.active.end(), true);
    num_active_ += data.num_rows();
  }
}

std::vector<TupleId> Database::ActiveTuples(int rel) const {
  std::vector<TupleId> out;
  const RelationData& data = relations_[static_cast<size_t>(rel)];
  for (int row = 0; row < data.num_rows(); ++row) {
    if (data.active[static_cast<size_t>(row)]) out.push_back(TupleId{rel, row});
  }
  return out;
}

std::string Database::TupleToString(TupleId id) const {
  std::string s = relation_name(id.relation) + "(";
  const RowView row = Row(id);
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ",";
    s += ValueName(row[i]);
  }
  s += ")";
  return s;
}

}  // namespace rescq
