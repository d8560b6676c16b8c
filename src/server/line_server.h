#ifndef RESCQ_SERVER_LINE_SERVER_H_
#define RESCQ_SERVER_LINE_SERVER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"

namespace rescq {

/// What a connection handler wants done with one request line's reply.
/// `response` is sent verbatim (empty = no reply, the blank/comment
/// case); `close_connection` drops the connection after the reply;
/// `stop_server` additionally begins a graceful server stop.
struct LineResult {
  std::string response;
  bool close_connection = false;
  bool stop_server = false;
};

/// Per-connection request handler: the transport creates one per
/// accepted connection (connections are stateful — the current session,
/// the pending epoch) and calls Handle once per received line. A
/// trailing '\r' is stripped by the transport before dispatch, so CRLF
/// clients behave identically to LF clients.
class LineConnectionHandler {
 public:
  virtual ~LineConnectionHandler() = default;
  virtual LineResult Handle(std::string_view line) = 0;
};

/// How a LineServer binds and staffs itself.
struct LineServerOptions {
  /// Numeric IPv4 address to bind.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral one (read it back
  /// from port() after Start — the test and smoke harnesses depend on
  /// this).
  int port = 0;
  /// Connection handler threads: how many connections make progress
  /// concurrently.
  int threads = 4;
  /// Counter bumped once per accepted connection.
  std::string connections_metric = "server.connections";
};

/// The shared line-protocol TCP transport: a listening socket, an
/// accept thread feeding a queue of client fds, and `threads` handler
/// threads that each drive one connection at a time — one
/// request line in, one framed reply out, request lines capped at
/// 64 KiB. `rescq serve` (ResilienceServer) and `rescq route`
/// (ShardRouter) are both this transport under different
/// LineConnectionHandlers.
///
/// Clients may pipeline. A connection walks its receive buffer with an
/// offset cursor, handling every complete line already received, and
/// appends the replies, in request order, to one output buffer. That
/// buffer is sent (on a TCP_NODELAY socket) before each read, when it
/// reaches 64 KiB, and before the connection closes — so a reply is
/// never held while the server waits for more input.
///
/// Lifecycle: Start() binds and spawns the threads; Wait() blocks until
/// the server stops (a handler's stop_server, Stop(), or a signal
/// relayed through SignalStop()); Stop() = RequestStop() + Wait(). The
/// destructor stops a still-running server.
///
/// Thread contract: Start once from one thread. RequestStop/SignalStop
/// are safe from any thread and idempotent; SignalStop is additionally
/// async-signal-safe (a single pipe write — the CLI's SIGINT/SIGTERM
/// handler calls it, and the accept thread turns it into a full stop).
class LineServer {
 public:
  /// Called once per accepted connection to make its handler.
  using HandlerFactory =
      std::function<std::unique_ptr<LineConnectionHandler>()>;

  LineServer(const LineServerOptions& options, HandlerFactory factory);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds, listens, and spawns the accept and handler threads.
  /// False with *error on any socket failure (nothing is left running).
  bool Start(std::string* error);

  /// The bound TCP port (resolves port 0 to the kernel's choice).
  /// Valid after a successful Start.
  int port() const { return port_; }

  /// Begins a graceful stop: stops accepting, unblocks every in-flight
  /// read, and lets the handler loops drain. Returns immediately.
  void RequestStop();

  /// Async-signal-safe stop request (one pipe write; the accept thread
  /// escalates it to RequestStop).
  void SignalStop();

  /// Blocks until the server has fully stopped and joins its threads.
  void Wait();

  /// RequestStop() then Wait().
  void Stop();

 private:
  void AcceptLoop();
  void HandlerLoop();
  void ServeConnection(int fd);

  const LineServerOptions options_;
  HandlerFactory factory_;
  obs::CounterHandle connections_;  // options_.connections_metric

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: signals + stop wake the accept poll
  int port_ = 0;

  std::mutex mu_;
  std::deque<int> pending_fds_;          // accepted, not yet picked up
  std::unordered_set<int> active_fds_;   // being served right now
  bool stop_ = false;
  bool started_ = false;
  bool joined_ = false;
  std::condition_variable queue_cv_;

  // Declared after everything their loops use.
  std::thread accept_thread_;
  std::vector<std::thread> handler_threads_;  // one HandlerLoop each
};

}  // namespace rescq

#endif  // RESCQ_SERVER_LINE_SERVER_H_
