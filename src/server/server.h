#ifndef RESCQ_SERVER_SERVER_H_
#define RESCQ_SERVER_SERVER_H_

#include <string>

#include "resilience/engine.h"
#include "server/line_server.h"
#include "server/protocol.h"
#include "server/session_registry.h"

namespace rescq {

/// How `rescq serve` runs the daemon.
struct ServerOptions {
  /// Numeric IPv4 address to bind.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral one (read it back from
  /// port() after Start — the test and smoke harnesses depend on this).
  int port = 0;
  /// Connection handler threads: how many requests make progress
  /// concurrently. Independent of ServerLimits::solver_threads, which
  /// fans out inside one epoch solve.
  int threads = 4;
  ServerLimits limits;
};

/// The long-lived resilience daemon: the shared LineServer transport
/// (accept thread + handler threads, see server/line_server.h) driving one
/// ProtocolHandler per connection. All sessions live in one registry
/// and all planning goes through one shared engine, so N connections to
/// the same query pay one plan.
///
/// Lifecycle and thread contract are the transport's: Start once;
/// RequestStop/SignalStop from any thread (SignalStop is
/// async-signal-safe); Wait joins; Stop = RequestStop + Wait.
class ResilienceServer {
 public:
  /// `engine` must be thread-safe (ResilienceEngine is) and outlive the
  /// server.
  ResilienceServer(const ServerOptions& options, ResilienceEngine* engine);

  ResilienceServer(const ResilienceServer&) = delete;
  ResilienceServer& operator=(const ResilienceServer&) = delete;

  /// Binds, listens, and spawns the accept and handler threads.
  /// False with *error on any socket failure (nothing is left running).
  bool Start(std::string* error) { return transport_.Start(error); }

  /// The bound TCP port (resolves port 0 to the kernel's choice).
  /// Valid after a successful Start.
  int port() const { return transport_.port(); }

  /// The number of sessions currently open (for status lines).
  size_t active_sessions() const { return registry_.size(); }

  /// Begins a graceful stop: stops accepting, unblocks every in-flight
  /// read, and lets the handler loops drain. Returns immediately.
  void RequestStop() { transport_.RequestStop(); }

  /// Async-signal-safe stop request (one pipe write; the accept thread
  /// escalates it to RequestStop).
  void SignalStop() { transport_.SignalStop(); }

  /// Blocks until the server has fully stopped and joins its threads.
  void Wait() { transport_.Wait(); }

  /// RequestStop() then Wait().
  void Stop() { transport_.Stop(); }

 private:
  static LineServerOptions TransportOptions(const ServerOptions& options);

  const ServerOptions options_;
  ResilienceEngine* engine_;
  SessionRegistry registry_;
  LineServer transport_;
};

}  // namespace rescq

#endif  // RESCQ_SERVER_SERVER_H_
