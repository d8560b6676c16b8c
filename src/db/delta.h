#ifndef RESCQ_DB_DELTA_H_
#define RESCQ_DB_DELTA_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/database.h"

namespace rescq {

/// One base-table update. Updates are textual (relation + constant
/// names, like tuple files) so a log is independent of any particular
/// Database's interning and can round-trip through an update file
/// (db/tuple_io).
enum class UpdateKind {
  kInsert,  // add the fact (reactivating a previously deleted tuple)
  kDelete,  // deactivate the fact (a no-op if it is absent or inactive)
};

struct Update {
  UpdateKind kind = UpdateKind::kInsert;
  std::string relation;
  std::vector<std::string> constants;

  bool operator==(const Update& o) const {
    return kind == o.kind && relation == o.relation &&
           constants == o.constants;
  }
};

/// Updates are batched into epochs: the unit of incremental maintenance
/// and of per-row stream reporting. Within an epoch, updates apply in
/// order (an insert-then-delete of the same fact inside one epoch nets
/// out to nothing).
struct Epoch {
  std::vector<Update> updates;

  bool operator==(const Epoch& o) const { return updates == o.updates; }
};

struct UpdateLog {
  std::vector<Epoch> epochs;

  /// Total updates across all epochs.
  size_t size() const;

  bool operator==(const UpdateLog& o) const { return epochs == o.epochs; }
};

/// Checks every update in the log against db's relations and against the
/// other updates: an update whose arity disagrees with the relation's
/// existing tuples (or with an earlier update that first creates the
/// relation) is an error — Database treats an arity mismatch as a
/// programmer bug and aborts, so untrusted logs are vetted here first.
bool ValidateUpdateLog(const UpdateLog& log, const Database& db,
                       std::string* error);

/// ValidateUpdateLog's check, one update at a time, for callers that
/// admit updates as they arrive (the server's pending epoch): an update
/// is checked against db's relations and against the updates admitted
/// since the last Clear, never re-checking those.
class UpdateArityCheck {
 public:
  /// Checks u; on success remembers the arity of a relation db lacks.
  /// `epoch_no` (1-based) only labels the error, which is worded
  /// exactly as ValidateUpdateLog's.
  bool Admit(const Update& u, const Database& db, int epoch_no,
             std::string* error);
  void Clear() { arity_.clear(); }

 private:
  /// Arities of the admitted updates' relations that db did not have.
  std::unordered_map<std::string, int> arity_;
};

/// Applies one update to db. Insert activates the fact, creating the
/// tuple (and relation) on first use; Delete deactivates it. Returns the
/// affected TupleId, or nullopt when the update changed nothing
/// (inserting an already-active fact, deleting an absent or inactive
/// one). The log must have been validated: arity mismatches abort.
std::optional<TupleId> ApplyUpdate(const Update& u, Database* db);

/// The effective changes of one applied epoch: tuple ids whose activity
/// actually flipped, in application order. No-op updates leave no trace.
struct AppliedEpoch {
  std::vector<TupleId> inserted;
  std::vector<TupleId> deleted;
};

/// Applies every update of the epoch in order.
AppliedEpoch ApplyEpoch(const Epoch& epoch, Database* db);

}  // namespace rescq

#endif  // RESCQ_DB_DELTA_H_
