#ifndef RESCQ_SERVER_SESSION_REGISTRY_H_
#define RESCQ_SERVER_SESSION_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "db/delta.h"
#include "resilience/incremental.h"
#include "util/clock.h"  // SteadyNowMs, the idle-accounting clock

namespace rescq {

/// One named session as the registry tracks it. A session is born
/// *staging* (the base instance is being pushed or loaded into
/// `staging`), becomes *live* when `begin` constructs the
/// IncrementalSession (which takes its own copy of the base), and stays
/// addressable until closed.
///
/// Locking: `mu` is the session's own reader/writer lock and the only
/// synchronization a session needs. Mutations (push/load/begin/epoch
/// apply/close) run under the exclusive lock; read-only requests
/// (resilience/stats/explain) under the shared lock — exactly the
/// one-writer/concurrent-readers contract IncrementalSession documents.
/// Because every session has its own lock, one session's epoch apply
/// never blocks another session's solve; the registry's map mutex is
/// only ever held for create/lookup/close bookkeeping, never across a
/// solve.
struct SessionEntry {
  explicit SessionEntry(std::string session_name) : name(std::move(session_name)) {}

  const std::string name;
  mutable std::shared_mutex mu;

  // All fields below are guarded by mu.
  std::string query_text;  // canonical form, set at open
  Query query;             // parsed at open
  Database staging;        // the pushed/loaded base; moved out at begin
  size_t staging_tuples = 0;
  std::unique_ptr<IncrementalSession> session;  // null while staging
  bool closed = false;  // a handle may outlive its registry slot

  // Eviction bookkeeping, written without holding mu (atomics): the
  // handler stamps last_touch_ms after every request on the session,
  // and refreshes resident_bytes whenever a mutation changes the
  // session's footprint. Both are advisory — the sweep re-checks the
  // real state under the entry lock before evicting.
  std::atomic<int64_t> last_touch_ms{0};
  std::atomic<uint64_t> resident_bytes{0};

  bool live() const { return session != nullptr; }
};

/// Thread-safe name -> session map. Entries are handed out as
/// shared_ptr so a connection can keep using a handle it resolved even
/// if another connection closes the name concurrently (the entry's
/// `closed` flag tells it so on the next request). All registry methods
/// only take the internal map mutex — per-session work happens under
/// the entry's own lock, outside any registry-wide serialization.
class SessionRegistry {
 public:
  /// `max_sessions` caps concurrently open sessions (0 = unlimited);
  /// exceeding it makes Open fail — the admission-control knob.
  explicit SessionRegistry(size_t max_sessions = 0)
      : max_sessions_(max_sessions) {}

  /// Creates a staging session. Fails (false + *error) when the name is
  /// taken or the session cap is reached; *entry is then untouched.
  bool Open(const std::string& name, std::shared_ptr<SessionEntry>* entry,
            std::string* error);

  /// The named session, or nullptr.
  std::shared_ptr<SessionEntry> Find(const std::string& name) const;

  /// Removes the name and marks the entry closed (under its exclusive
  /// lock, so in-flight requests on other connections finish first).
  /// False when the name is unknown.
  bool Close(const std::string& name, std::string* error);

  /// Currently open sessions.
  size_t size() const;

  /// Snapshot of every open entry, name order (for the `sessions` verb).
  std::vector<std::shared_ptr<SessionEntry>> List() const;

  /// One eviction sweep; returns how many sessions dropped cold state.
  /// Two passes over a registry snapshot: every live session idle
  /// longer than `idle_ms` (0 = no idle eviction) is evicted, then —
  /// while the summed resident_bytes still exceed `max_resident_bytes`
  /// (0 = uncapped) — the remaining sessions are evicted coldest-first
  /// (oldest last_touch_ms). Each candidate is taken with a try_lock:
  /// a session busy serving a request is by definition hot and is
  /// skipped rather than waited for. Eviction drops the session's
  /// WitnessIndex and scratch (IncrementalSession::EvictColdState);
  /// the maintained answer survives and the index rebuilds lazily on
  /// the next epoch.
  size_t EvictColdSessions(int64_t now_ms, int64_t idle_ms,
                           uint64_t max_resident_bytes);

 private:
  const size_t max_sessions_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<SessionEntry>> entries_;  // name-sorted
};

}  // namespace rescq

#endif  // RESCQ_SERVER_SESSION_REGISTRY_H_
