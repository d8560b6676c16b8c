#include "server/router.h"

#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "server/protocol.h"
#include "server/session_registry.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace rescq {

namespace {

std::string RouterErr(const char* code, const std::string& message) {
  obs::Count("shard.errors");
  return std::string("err ") + code + " " + message + "\n";
}

/// One summable field of the server-scope `stats` line.
bool ParseStatsField(const std::vector<std::string>& tokens,
                     const std::string& key, long long* out) {
  for (const std::string& token : tokens) {
    if (token.size() > key.size() + 1 && token.compare(0, key.size(), key) == 0 &&
        token[key.size()] == '=') {
      uint64_t v = 0;
      if (!ParseUint64(token.substr(key.size() + 1), &v)) return false;
      *out = static_cast<long long>(v);
      return true;
    }
  }
  return false;
}

}  // namespace

bool ParseShardSpec(const std::string& text, ShardSpec* spec,
                    std::string* error) {
  size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == text.size()) {
    *error = "shard spec '" + text + "' is not host:port";
    return false;
  }
  int port = 0;
  if (!ParsePositiveInt(text.substr(colon + 1), &port) || port > 65535) {
    *error = "shard spec '" + text + "' has a bad port";
    return false;
  }
  spec->host = text.substr(0, colon);
  spec->port = port;
  return true;
}

/// One router connection: the per-connection protocol state (current
/// session and its owning shard) plus a lazy LineClient per shard, so
/// forwarded lines replay verbatim on the owning shard's connection.
class RouterConnection : public LineConnectionHandler {
 public:
  explicit RouterConnection(ShardRouter* router) : router_(router) {
    channels_.resize(router_->shards_.size());
  }

  LineResult Handle(std::string_view raw) override;

 private:
  using ShardState = ShardRouter::ShardState;

  const RouterOptions& opts() const { return router_->options_; }
  ShardState& shard(size_t i) { return *router_->shards_[i]; }
  size_t shard_count() const { return router_->shards_.size(); }

  void MarkDown(size_t i) {
    shard(i).down_until_ms.store(SteadyNowMs() + opts().down_cooldown_ms,
                                 std::memory_order_relaxed);
  }

  /// One request on shard i over `client`. A fresh connection is made
  /// under the router's deadline/retry policy and re-selects `session`
  /// (when non-empty) first. A request that dies mid-flight is resent
  /// once, on a new connection, only if `idempotent`: a mutating verb
  /// might have been applied before the connection broke. Marks the
  /// shard up on success and down on failure; a shard already down
  /// fails fast. False with *detail on failure.
  bool Exchange(size_t i, LineClient* client, const std::string& session,
                const std::string& line, bool idempotent, std::string* reply,
                std::string* detail);

  /// Forwards one line to shard i on this connection's channel. Always
  /// returns a full '\n'-terminated reply.
  std::string Forward(size_t i, const std::string& line, bool idempotent);

  /// Sends `line` on every shard's session-less control channel (so
  /// `stats` comes back server-scope); the replies of the shards that
  /// answered.
  std::vector<std::string> Scatter(const std::string& line);
  std::string ScatterStats();
  std::string ScatterSessions();

  ShardRouter* router_;
  std::vector<std::unique_ptr<LineClient>> channels_;
  std::string current_session_;
  int current_shard_ = -1;
};

bool RouterConnection::Exchange(size_t i, LineClient* client,
                                const std::string& session,
                                const std::string& line, bool idempotent,
                                std::string* reply, std::string* detail) {
  ShardState& s = shard(i);
  if (s.down_until_ms.load(std::memory_order_relaxed) > SteadyNowMs()) {
    *detail = "marked down, retrying after cooldown";
    return false;
  }
  const RouterOptions& o = opts();
  client->set_connect_timeout_ms(o.connect_timeout_ms);
  client->set_io_timeout_ms(o.request_timeout_ms);
  const int attempts = 1 + (o.retries < 0 ? 0 : o.retries);
  for (int sends = idempotent ? 2 : 1; sends > 0; --sends) {
    for (int attempt = 0; !client->connected(); ++attempt) {
      if (attempt == attempts) {
        MarkDown(i);
        return false;
      }
      if (attempt > 0) {
        obs::Count("shard.retries");
        std::this_thread::sleep_for(
            std::chrono::milliseconds(o.backoff_ms * attempt));
      }
      if (client->Connect(s.spec.host, s.spec.port, detail) &&
          !session.empty()) {
        // An err reply (the shard restarted and lost the session) is
        // left alone: the request then earns an honest `err no-session`.
        std::string ignored;
        client->Request("use " + session, &ignored, detail);
      }
    }
    if (client->Request(line, reply, detail)) {
      s.down_until_ms.store(0, std::memory_order_relaxed);
      return true;
    }
  }
  MarkDown(i);
  return false;
}

std::string RouterConnection::Forward(size_t i, const std::string& line,
                                      bool idempotent) {
  if (channels_[i] == nullptr) channels_[i] = std::make_unique<LineClient>();
  const std::string& session =
      current_shard_ == static_cast<int>(i) ? current_session_ : "";
  std::string reply, detail;
  if (!Exchange(i, channels_[i].get(), session, line, idempotent, &reply,
                &detail)) {
    obs::Count("shard.failovers");
    return RouterErr("shard_unavailable", "shard " + std::to_string(i) +
                                              " (" + shard(i).spec.Label() +
                                              "): " + detail);
  }
  obs::Count("shard.forwarded");
  shard(i).forwarded.Add();
  return reply + "\n";
}

std::vector<std::string> RouterConnection::Scatter(const std::string& line) {
  std::vector<std::string> replies;
  for (size_t i = 0; i < shard_count(); ++i) {
    ShardState& s = shard(i);
    std::lock_guard<std::mutex> lock(s.control_mu);
    std::string reply, detail;
    // Every scattered verb (stats, sessions, shutdown) is safe to resend.
    if (Exchange(i, &s.control, "", line, /*idempotent=*/true, &reply,
                 &detail)) {
      replies.push_back(std::move(reply));
    }
  }
  return replies;
}

std::string RouterConnection::ScatterStats() {
  Clock::time_point start = Clock::now();
  long long sessions = 0, live = 0, staging = 0, tuples = 0, sets = 0;
  size_t up = 0;
  for (const std::string& reply : Scatter("stats")) {
    if (!StartsWith(reply, "ok stats scope=server ")) continue;
    std::vector<std::string> tokens = SplitTrimmed(reply, ' ');
    long long v = 0;
    if (ParseStatsField(tokens, "sessions", &v)) sessions += v;
    if (ParseStatsField(tokens, "live", &v)) live += v;
    if (ParseStatsField(tokens, "staging", &v)) staging += v;
    if (ParseStatsField(tokens, "tuples", &v)) tuples += v;
    if (ParseStatsField(tokens, "sets", &v)) sets += v;
    ++up;
  }
  obs::ObserveLatencyMs("shard.scatter_ms", MsSince(start));
  if (up == 0) {
    obs::Count("shard.failovers");
    return RouterErr("shard_unavailable", "no shard reachable for stats");
  }
  return StrFormat(
      "ok stats scope=router shards=%zu up=%zu sessions=%lld live=%lld "
      "staging=%lld tuples=%lld sets=%lld\n",
      shard_count(), up, sessions, live, staging, tuples, sets);
}

std::string RouterConnection::ScatterSessions() {
  Clock::time_point start = Clock::now();
  std::vector<std::string> lines;
  size_t up = 0;
  for (const std::string& reply : Scatter("sessions")) {
    std::vector<std::string> parts = Split(reply, '\n');
    if (parts.empty() || !StartsWith(parts[0], "ok sessions ")) continue;
    lines.insert(lines.end(), parts.begin() + 1, parts.end());
    ++up;
  }
  obs::ObserveLatencyMs("shard.scatter_ms", MsSince(start));
  if (up == 0) {
    obs::Count("shard.failovers");
    return RouterErr("shard_unavailable", "no shard reachable for sessions");
  }
  // Shards hold disjoint name sets; a global sort restores the
  // deterministic name order each shard's own listing has.
  std::sort(lines.begin(), lines.end());
  std::string reply = StrFormat("ok sessions %zu\n", lines.size());
  for (const std::string& l : lines) reply += l + "\n";
  return reply;
}

LineResult RouterConnection::Handle(std::string_view raw) {
  LineResult result;
  Request req;
  if (!ParseRequest(raw, &req)) return result;  // no reply
  obs::Count("shard.requests");
  const std::string request(req.line);
  const bool idempotent = !req.spec->mutating;
  std::string& reply = result.response;

  switch (req.spec->verb) {
    case Verb::kPing:
      reply = "ok pong\n";
      break;
    case Verb::kQuit:
      reply = "ok bye\n";
      result.close_connection = true;
      break;
    case Verb::kShutdown:
      if (!opts().allow_shutdown) {
        reply = RouterErr("shutdown-disabled",
                          "this router does not honor the shutdown verb");
        break;
      }
      Scatter("shutdown");  // best effort
      reply = "ok shutdown\n";
      result.close_connection = true;
      result.stop_server = true;
      break;
    case Verb::kOpen:
    case Verb::kUse: {
      std::string_view name, tail;
      SplitWord(req.args, &name, &tail);
      std::string error;
      if (!ValidSessionName(name, &error)) {
        reply = RouterErr("bad-request", error);
        break;
      }
      size_t owner = router_->map_.OwnerOf(name);
      reply = Forward(owner, request, idempotent);
      if (StartsWith(reply, "ok ")) {
        current_session_ = std::string(name);
        current_shard_ = static_cast<int>(owner);
      }
      break;
    }
    case Verb::kClose: {
      std::string name =
          req.args.empty() ? current_session_ : std::string(req.args);
      if (name.empty()) {
        reply = RouterErr("no-session",
                          "no session selected (open or use one first)");
        break;
      }
      reply = Forward(router_->map_.OwnerOf(name), request, idempotent);
      if (StartsWith(reply, "ok ") && name == current_session_) {
        current_session_.clear();
        current_shard_ = -1;
      }
      break;
    }
    case Verb::kStats:
      reply = current_shard_ >= 0
                  ? Forward(static_cast<size_t>(current_shard_), request,
                            idempotent)
                  : ScatterStats();
      break;
    case Verb::kSessions:
      reply = ScatterSessions();
      break;
    case Verb::kUnknown:
      reply = RouterErr("bad-request",
                        "unknown verb '" + std::string(req.verb) + "'");
      break;
    case Verb::kClassify:
      if (!req.args.empty() && current_shard_ < 0) {
        // An inline-query classify needs no session; hash the query text
        // so the load spreads but stays deterministic.
        reply = Forward(router_->map_.OwnerOf(req.args), request, idempotent);
        break;
      }
      [[fallthrough]];
    case Verb::kUpdate:
    case Verb::kPush:
    case Verb::kLoad:
    case Verb::kBegin:
    case Verb::kEpoch:
    case Verb::kResilience:
    case Verb::kExplain:
      // No default: -Wswitch flags a verb added to kVerbs but not here.
      if (current_shard_ < 0) {
        reply = RouterErr("no-session",
                          "no session selected (open or use one first)");
      } else {
        reply =
            Forward(static_cast<size_t>(current_shard_), request, idempotent);
      }
      break;
  }
  return result;
}

LineServerOptions ShardRouter::TransportOptions(const RouterOptions& options) {
  LineServerOptions transport;
  transport.host = options.host;
  transport.port = options.port;
  transport.threads = options.threads;
  transport.connections_metric = "shard.client_connections";
  return transport;
}

ShardRouter::ShardRouter(const RouterOptions& options)
    : options_(options),
      map_(options.shards.empty() ? 1 : options.shards.size()),
      transport_(TransportOptions(options), [this] {
        return std::make_unique<RouterConnection>(this);
      }) {
  for (const ShardSpec& spec : options_.shards) {
    auto state = std::make_unique<ShardState>(shards_.size());
    state->spec = spec;
    shards_.push_back(std::move(state));
  }
  obs::SetGauge("shard.count", static_cast<double>(shards_.size()));
}

bool InProcessShards::Start(size_t count, const ServerOptions& base,
                            std::string* error) {
  Stop();
  for (size_t i = 0; i < count; ++i) {
    engines_.push_back(std::make_unique<ResilienceEngine>());
    ServerOptions options = base;
    options.port = 0;  // every in-process shard gets its own ephemeral port
    servers_.push_back(
        std::make_unique<ResilienceServer>(options, engines_.back().get()));
    if (!servers_.back()->Start(error)) {
      *error = "shard " + std::to_string(i) + ": " + *error;
      Stop();
      return false;
    }
  }
  return true;
}

std::vector<ShardSpec> InProcessShards::specs() const {
  std::vector<ShardSpec> specs;
  specs.reserve(servers_.size());
  for (const std::unique_ptr<ResilienceServer>& server : servers_) {
    ShardSpec spec;
    spec.host = "127.0.0.1";
    spec.port = server->port();
    specs.push_back(spec);
  }
  return specs;
}

void InProcessShards::Stop() {
  for (std::unique_ptr<ResilienceServer>& server : servers_) {
    if (server != nullptr) server->Stop();
  }
  servers_.clear();
  engines_.clear();
}

}  // namespace rescq
