#ifndef RESCQ_SERVER_ROUTER_H_
#define RESCQ_SERVER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "resilience/engine.h"
#include "server/client.h"
#include "server/line_server.h"
#include "server/server.h"
#include "server/shard_map.h"

namespace rescq {

/// One backend `rescq serve` address.
struct ShardSpec {
  std::string host;
  int port = 0;

  std::string Label() const { return host + ":" + std::to_string(port); }
};

/// Parses "host:port" (the `rescq route --shard` argument form).
bool ParseShardSpec(const std::string& text, ShardSpec* spec,
                    std::string* error);

/// How `rescq route` runs the sharding front-end.
struct RouterOptions {
  /// Numeric IPv4 address to bind.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral one.
  int port = 0;
  /// Connection handler threads.
  int threads = 4;
  /// Backend shards, in ring order (the list must be identical — same
  /// order — on every router over the same fleet).
  std::vector<ShardSpec> shards;
  /// Virtual nodes per shard on the consistent-hash ring.
  size_t vnodes = 64;
  /// Deadlines on every backend LineClient.
  int connect_timeout_ms = 2000;
  int request_timeout_ms = 10000;
  /// Extra connect attempts after the first, with backoff_ms * attempt
  /// sleeps in between.
  int retries = 2;
  int backoff_ms = 50;
  /// After a shard is marked down, requests to it fail fast with
  /// `err shard_unavailable` for this long before the next probe.
  int down_cooldown_ms = 500;
  /// Honor the `shutdown` verb (broadcast to every shard, then stop).
  bool allow_shutdown = true;
};

/// The consistent-hash sharding front-end: speaks the rescq line
/// protocol on its own port, owns no sessions, and forwards every
/// session verb verbatim to the shard that owns the session's name
/// (ShardMap placement). `stats` and `sessions` with no current
/// session are scatter-gathered across all shards into one aggregated
/// reply.
///
/// Each router connection mirrors the protocol's per-connection state
/// (current session, pending epoch) by holding its own lazily-connected
/// LineClient per shard — forwarding stays verbatim because the backend
/// connection sees exactly the client's line sequence. Failure policy:
/// connect attempts are bounded (deadline + retry-with-backoff) and a
/// failing shard is marked down for down_cooldown_ms, during which its
/// requests fail fast with `err shard_unavailable`. A request that dies
/// mid-flight is retried (one reconnect + resend) only for idempotent
/// reads; mutating verbs surface the error instead of risking a
/// double-apply.
///
/// Lifecycle mirrors ResilienceServer: Start/port/RequestStop/
/// SignalStop (async-signal-safe)/Wait/Stop.
class ShardRouter {
 public:
  explicit ShardRouter(const RouterOptions& options);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  bool Start(std::string* error) { return transport_.Start(error); }
  int port() const { return transport_.port(); }
  void RequestStop() { transport_.RequestStop(); }
  void SignalStop() { transport_.SignalStop(); }
  void Wait() { transport_.Wait(); }
  void Stop() { transport_.Stop(); }

  const ShardMap& shard_map() const { return map_; }
  const RouterOptions& options() const { return options_; }

 private:
  friend class RouterConnection;

  /// Shared per-shard health + the session-less scatter-gather channel.
  struct ShardState {
    explicit ShardState(size_t index)
        : forwarded("shard.forwarded." + std::to_string(index)) {}

    ShardSpec spec;
    std::mutex control_mu;
    LineClient control;  // guarded by control_mu; never selects a session
    std::atomic<int64_t> down_until_ms{0};
    obs::CounterHandle forwarded;  // "shard.forwarded.<index>"
  };

  static LineServerOptions TransportOptions(const RouterOptions& options);

  const RouterOptions options_;
  ShardMap map_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  LineServer transport_;
};

/// `rescq route --shards N`: N self-contained serve instances (each its
/// own engine, registry, and ephemeral port) inside the router process.
/// Also the fleet server_test and perfbench's route_churn run.
class InProcessShards {
 public:
  InProcessShards() = default;
  ~InProcessShards() { Stop(); }

  InProcessShards(const InProcessShards&) = delete;
  InProcessShards& operator=(const InProcessShards&) = delete;

  /// Starts `count` servers configured from `base` (port is forced to
  /// 0). False with *error if any fails to start (all are stopped).
  bool Start(size_t count, const ServerOptions& base, std::string* error);

  std::vector<ShardSpec> specs() const;
  size_t count() const { return servers_.size(); }
  ResilienceServer* server(size_t i) { return servers_[i].get(); }

  void Stop();

 private:
  std::vector<std::unique_ptr<ResilienceEngine>> engines_;
  std::vector<std::unique_ptr<ResilienceServer>> servers_;
};

}  // namespace rescq

#endif  // RESCQ_SERVER_ROUTER_H_
