#ifndef RESCQ_DB_DATABASE_H_
#define RESCQ_DB_DATABASE_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/value.h"
#include "util/fnv.h"

namespace rescq {

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
  const std::vector<Value>& Row(TupleId id) const;
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
  // FNV-1a over the value ids (the shared util/fnv implementation) —
  // the exact-match row index is on the update hot path (every
  // insert/delete resolves through it), so rows hash directly instead
  // of being serialized into string keys.
  struct RowHash {
    size_t operator()(const std::vector<Value>& values) const {
      Fnv1a h;
      for (Value v : values) h.MixU32(static_cast<uint32_t>(v));
      return static_cast<size_t>(h.digest());
    }
  };

  struct RelationData {
    std::string name;
    int arity = 0;
    std::vector<std::vector<Value>> rows;
    std::vector<bool> active;
    // Exact-match index for FindTuple / duplicate suppression.
    std::unordered_map<std::vector<Value>, int, RowHash> row_index;
  };

  std::vector<std::string> value_names_;
  std::unordered_map<std::string, Value> value_ids_;
  std::vector<RelationData> relations_;
  std::unordered_map<std::string, int> relation_ids_;
  int num_active_ = 0;
};

}  // namespace rescq

#endif  // RESCQ_DB_DATABASE_H_
