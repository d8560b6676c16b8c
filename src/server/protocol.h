#ifndef RESCQ_SERVER_PROTOCOL_H_
#define RESCQ_SERVER_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "db/delta.h"
#include "resilience/engine.h"
#include "server/line_server.h"
#include "server/session_registry.h"

namespace rescq {

// The rescq wire protocol: one request line in, one reply out (blank
// and '#'-comment lines are ignored without a reply, so update files
// can be piped verbatim). Replies are a single line — `ok ...` or
// `err <code> <message>` — except the multi-line verbs (`explain`,
// `sessions`), whose first line `ok <verb> <n>` announces n payload
// lines. The verbs are the rows of one table (kVerbs in protocol.cc):
// the server dispatches on it, the router routes on it and LineClient
// frames replies from it. The full grammar lives in docs/SERVER.md;
// tests/golden/server_transcript.golden pins the bytes.
//
//   open <session> <query>        create a named staging session
//   use <session>                 switch this connection's session
//   push R(a,b)                   add one base fact (staging only)
//   load <path>                   replace the staged base from a
//                                 server-side tuple file
//   begin [witness_limit=N] [node_budget=N]
//                                 build the IncrementalSession (epoch 0)
//   + R(a,b)  /  - S(c)           queue an update into the pending epoch
//   epoch                         apply the pending epoch incrementally
//   resilience                    the maintained answer (never re-solves)
//   classify [<query>]            complexity of the session (or inline) query
//   explain                       the engine's resilience plan (multi-line)
//   stats                         one-line session statistics
//   sessions                      list open sessions (multi-line)
//   close [<session>]             close the current (or named) session
//   ping / quit / shutdown        health check / drop connection / stop server

enum class Verb {
  kUpdate, kOpen, kUse, kPush, kLoad, kBegin, kEpoch, kResilience, kClassify,
  kExplain, kStats, kSessions, kClose, kPing, kQuit, kShutdown, kUnknown
};

/// One row of the verb table.
struct VerbSpec {
  std::string_view name;
  Verb verb;
  /// "server.requests.<name>": a string literal, because obs::Count
  /// caches its slot by the literal's address.
  const char* counter;
  /// Answered `err no-session` when no session is selected.
  bool needs_session;
  /// May change server state, so the router never resends a forwarded
  /// request that died mid-flight. The verbs the router answers itself
  /// or scatters (ping, quit, sessions, shutdown) do not read it.
  bool mutating;
  /// The reply is `ok <name> <n>` followed by n payload lines.
  bool multi_line;
};

/// The row named `name`; the unknown-verb row when there is none.
const VerbSpec& FindVerb(std::string_view name);

/// One request line, split.
struct Request {
  const VerbSpec* spec = nullptr;
  /// The trimmed line, and its first word ("+"/"-" for an update).
  std::string_view line;
  std::string_view verb;
  /// What follows the verb, trimmed; an update keeps the whole line.
  std::string_view args;
};

/// Trims (which drops a CRLF line's '\r'), and splits the verb from its
/// args.
/// False for blank and '#'-comment lines, which get no reply.
bool ParseRequest(std::string_view raw, Request* req);

/// Splits "word rest-of-text" at the first blank (rest is trimmed and
/// may be empty).
void SplitWord(std::string_view text, std::string_view* word,
               std::string_view* rest);

/// A session name: non-empty, no whitespace, and at most 128 bytes, so
/// a hostile client cannot grow the registry's keys without bound.
bool ValidSessionName(std::string_view name, std::string* error);

/// Admission-control and safety limits, fixed at server start. Zero
/// always means "unlimited"/"no default".
struct ServerLimits {
  /// Concurrently open sessions (enforced by SessionRegistry).
  size_t max_sessions = 0;
  /// Active tuples a staged base may reach via push/load.
  size_t max_base_tuples = 0;
  /// Updates one pending epoch may queue.
  size_t max_epoch_updates = 0;
  /// Witness budget applied when `begin` does not ask for one; a `begin`
  /// asking for more than `max_witness_limit` (or for unlimited when a
  /// max is set — then clamped to the max) is admission-controlled.
  size_t default_witness_limit = 0;
  size_t max_witness_limit = 0;
  /// Same scheme for the branch-and-bound node budget.
  uint64_t default_node_budget = 0;
  uint64_t max_node_budget = 0;
  /// EngineOptions::solver_threads for every session's epoch fan-out.
  int solver_threads = 1;
  /// Cold-state eviction (0 = disabled): when the estimated resident
  /// bytes across all live sessions exceed `max_resident_bytes`, the
  /// coldest sessions (oldest last touch first) drop their WitnessIndex
  /// and refresh scratch until back under the cap; any session idle
  /// longer than `evict_idle_ms` is evicted regardless of the cap. An
  /// evicted session still answers reads from its maintained state and
  /// rebuilds the index lazily on its next epoch.
  uint64_t max_resident_bytes = 0;
  int64_t evict_idle_ms = 0;
  /// Gate the `load` (server-side file read) and `shutdown` verbs.
  bool allow_load = true;
  bool allow_shutdown = true;
};

/// What one handled request tells the transport to do (the shared
/// transport's result type — see server/line_server.h).
using ProtocolResult = LineResult;

/// Per-connection protocol state machine. Holds the connection's
/// current session handle and its pending (not yet applied) epoch;
/// everything shared — the session registry, the plan-cache-bearing
/// engine, the limits — is borrowed and must outlive the handler.
///
/// Thread contract: one handler belongs to one connection and is
/// driven from one thread at a time; any number of handlers run
/// concurrently against the same registry/engine (per-session
/// shared_mutex + thread-safe engine). Handle never throws and never
/// aborts on any input byte sequence — malformed requests come back as
/// `err` lines.
class ProtocolHandler : public LineConnectionHandler {
 public:
  ProtocolHandler(SessionRegistry* registry, ResilienceEngine* engine,
                  const ServerLimits* limits);

  /// Handles one request line (without its trailing newline).
  ProtocolResult Handle(std::string_view line) override;

 private:
  std::string DoOpen(std::string_view args);
  std::string DoUse(std::string_view args);
  std::string DoPush(std::string_view args);
  std::string DoLoad(std::string_view args);
  std::string DoBegin(std::string_view args);
  std::string DoUpdate(std::string_view line);
  std::string DoEpoch();
  std::string DoResilience();
  std::string DoClassify(std::string_view args);
  std::string DoExplain();
  std::string DoStats();
  std::string DoSessions();
  std::string DoClose(std::string_view args);
  /// Drops the pending epoch and the arities it admitted.
  void ClearPending();

  SessionRegistry* registry_;
  ResilienceEngine* engine_;
  const ServerLimits* limits_;

  std::shared_ptr<SessionEntry> current_;
  std::vector<Update> pending_;
  /// The arities pending_ uses for relations absent from the live base,
  /// so each update line is checked alone, not with the whole batch.
  UpdateArityCheck pending_arity_;
};

}  // namespace rescq

#endif  // RESCQ_SERVER_PROTOCOL_H_
