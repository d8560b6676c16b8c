#ifndef RESCQ_DB_DATABASE_H_
#define RESCQ_DB_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/value.h"

namespace rescq {

/// A read-only view of one stored row: its values, contiguous in the
/// relation's storage. A view is invalidated by the next AddTuple (the
/// storage may grow and move); copy the values out to keep them across
/// inserts.
class RowView {
 public:
  RowView(const Value* data, size_t size) : data_(data), size_(size) {}

  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  Value operator[](size_t i) const { return data_[i]; }

 private:
  const Value* data_;
  size_t size_;
};

/// A database instance: a set of named relations over an interned value
/// domain. Tuples can be *deactivated* (simulating deletion) and
/// reactivated; ids stay stable, which lets contingency sets, witnesses,
/// and solvers refer to tuples across deletions.
class Database {
 public:
  Database() = default;

  // --- Domain -------------------------------------------------------------

  /// Interns a named constant, returning its Value (idempotent).
  Value Intern(const std::string& name);

  /// Convenience: interns "prefix_i".
  Value InternIndexed(const std::string& prefix, int i);

  const std::string& ValueName(Value v) const;
  int domain_size() const { return static_cast<int>(value_names_.size()); }

  // --- Relations ----------------------------------------------------------

  /// Returns the relation's index, creating it if needed.
  int AddRelation(const std::string& name, int arity);

  /// Index of the named relation, or -1.
  int RelationId(const std::string& name) const;

  int num_relations() const { return static_cast<int>(relations_.size()); }
  const std::string& relation_name(int rel) const;
  int relation_arity(int rel) const;

  // --- Tuples ---------------------------------------------------------------

  /// Inserts a tuple (creating the relation on first use); duplicate
  /// inserts return the existing id. The tuple starts active.
  TupleId AddTuple(const std::string& relation,
                   const std::vector<Value>& values);

  /// Looks up an existing tuple, active or not.
  std::optional<TupleId> FindTuple(const std::string& relation,
                                   const std::vector<Value>& values) const;

  /// As FindTuple, by constant names, without interning: a name the
  /// domain has never seen means no such tuple (and the domain does not
  /// grow), which is what a delete of an absent fact needs.
  std::optional<TupleId> FindTupleByNames(
      const std::string& relation,
      const std::vector<std::string>& constants) const;

  int NumRows(int rel) const;
  /// The tuple's values; see RowView for how long the view stays valid.
  RowView Row(TupleId id) const;
  bool IsActive(TupleId id) const;
  void SetActive(TupleId id, bool active);
  void ActivateAll();

  /// Total active tuples across all relations (a maintained count).
  int NumActiveTuples() const { return num_active_; }

  /// All active tuple ids of a relation.
  std::vector<TupleId> ActiveTuples(int rel) const;

  /// Human-readable "R(a,b)".
  std::string TupleToString(TupleId id) const;

 private:
  // One relation's rows, stored flat: row r is values[r * arity, (r + 1)
  // * arity). `index` is an open-addressing exact-match table for
  // FindTuple and duplicate suppression: each slot holds a row id (-1 =
  // empty), probed linearly from the row's hash and compared against
  // `values`. Its capacity is a power of two, at least twice the row
  // count.
  struct RelationData {
    std::string name;
    int arity = 0;
    std::vector<Value> values;
    std::vector<bool> active;  // one per row: its size is the row count
    std::vector<int32_t> index;

    int num_rows() const { return static_cast<int>(active.size()); }
    const Value* row(int r) const {
      return values.data() +
             static_cast<size_t>(r) * static_cast<size_t>(arity);
    }
    /// The slot holding the row equal to `row`, or else the empty slot
    /// where it would go. The index must be non-empty.
    size_t Probe(const Value* row) const;
    /// Doubles the index (or creates it) and re-inserts every row.
    void GrowIndex();
  };

  std::vector<std::string> value_names_;
  std::unordered_map<std::string, Value> value_ids_;
  /// RelationId scans relations_ up to this many relations, and looks a
  /// name up in relation_ids_ beyond.
  static constexpr size_t kScannedRelations = 8;

  std::vector<RelationData> relations_;
  std::unordered_map<std::string, int> relation_ids_;
  int num_active_ = 0;
};

inline RowView Database::Row(TupleId id) const {
  const RelationData& data = relations_[static_cast<size_t>(id.relation)];
  return RowView(data.row(id.row), static_cast<size_t>(data.arity));
}

}  // namespace rescq

#endif  // RESCQ_DB_DATABASE_H_
