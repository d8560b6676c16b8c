#include "server/router.h"

#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "server/session_registry.h"
#include "util/string_util.h"

namespace rescq {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Splits "verb rest-of-line" (rest may be empty).
void SplitVerb(std::string_view line, std::string_view* verb,
               std::string_view* rest) {
  size_t space = line.find_first_of(" \t");
  if (space == std::string_view::npos) {
    *verb = line;
    *rest = std::string_view();
    return;
  }
  *verb = line.substr(0, space);
  *rest = Trim(line.substr(space + 1));
}

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
/// session, which backend connection has it selected) plus a lazy
/// LineClient per shard, so forwarded lines replay verbatim on the
/// owning shard's connection.
class RouterConnection : public LineConnectionHandler {
 public:
  explicit RouterConnection(ShardRouter* router) : router_(router) {
    channels_.resize(router_->shards_.size());
    channel_session_.resize(router_->shards_.size());
  }

  LineResult Handle(std::string_view raw) override;

 private:
  using ShardState = ShardRouter::ShardState;

  const RouterOptions& opts() const { return router_->options_; }
  ShardState& shard(size_t i) { return *router_->shards_[i]; }
  size_t shard_count() const { return router_->shards_.size(); }

  bool ShardDown(size_t i) {
    return shard(i).down_until_ms.load(std::memory_order_relaxed) >
           SteadyNowMs();
  }
  void MarkDown(size_t i) {
    shard(i).down_until_ms.store(SteadyNowMs() + opts().down_cooldown_ms,
                                 std::memory_order_relaxed);
  }
  void MarkUp(size_t i) {
    shard(i).down_until_ms.store(0, std::memory_order_relaxed);
  }

  std::string Unavailable(size_t i, const std::string& detail) {
    obs::Count("shard.failovers");
    return RouterErr("shard_unavailable",
                     "shard " + std::to_string(i) + " (" +
                         shard(i).spec.Label() + "): " + detail);
  }

  /// Connects `client` to shard i under the router's deadline/retry
  /// policy. False with *detail after the last attempt fails.
  bool ConnectWithRetries(size_t i, LineClient* client, std::string* detail);

  /// After a reconnect, re-select the connection's current session on
  /// its owning shard (a fresh backend connection has none selected).
  void RestoreSelection(size_t i, LineClient* client);

  /// Forwards one line to shard i on this connection's channel.
  /// Idempotent requests survive one mid-flight reconnect; mutating
  /// ones fail over to `err shard_unavailable` rather than risking a
  /// double-apply. Always returns a full '\n'-terminated reply.
  std::string Forward(size_t i, const std::string& line, bool idempotent);

  /// Scatter-gather over every shard's session-less control channel.
  std::string ScatterStats();
  std::string ScatterSessions();
  void BroadcastShutdown();

  /// One request on shard i's shared control channel (session-less, so
  /// `stats` comes back server-scope). False if the shard is down.
  bool ControlRequest(size_t i, const std::string& line, std::string* reply);

  ShardRouter* router_;
  std::vector<std::unique_ptr<LineClient>> channels_;
  std::vector<std::string> channel_session_;  // selected on each backend conn
  std::string current_session_;
  int current_shard_ = -1;
};

bool RouterConnection::ConnectWithRetries(size_t i, LineClient* client,
                                          std::string* detail) {
  const RouterOptions& o = opts();
  client->set_connect_timeout_ms(o.connect_timeout_ms);
  client->set_io_timeout_ms(o.request_timeout_ms);
  int attempts = 1 + (o.retries < 0 ? 0 : o.retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      obs::Count("shard.retries");
      std::this_thread::sleep_for(
          std::chrono::milliseconds(o.backoff_ms * attempt));
    }
    if (client->Connect(shard(i).spec.host, shard(i).spec.port, detail)) {
      MarkUp(i);
      return true;
    }
  }
  MarkDown(i);
  return false;
}

void RouterConnection::RestoreSelection(size_t i, LineClient* client) {
  channel_session_[i].clear();
  if (current_shard_ != static_cast<int>(i) || current_session_.empty()) {
    return;
  }
  std::string reply, error;
  if (client->Request("use " + current_session_, &reply, &error) &&
      StartsWith(reply, "ok ")) {
    channel_session_[i] = current_session_;
  }
  // An err reply (the shard restarted and lost the session) is left
  // alone: the forwarded request then earns an honest `err no-session`.
}

std::string RouterConnection::Forward(size_t i, const std::string& line,
                                      bool idempotent) {
  if (ShardDown(i)) {
    return Unavailable(i, "marked down, retrying after cooldown");
  }
  if (channels_[i] == nullptr) channels_[i] = std::make_unique<LineClient>();
  LineClient* client = channels_[i].get();
  std::string detail;
  if (!client->connected()) {
    if (!ConnectWithRetries(i, client, &detail)) {
      return Unavailable(i, detail);
    }
    RestoreSelection(i, client);
  }
  std::string reply, error;
  if (!client->Request(line, &reply, &error)) {
    // The channel broke mid-request (Request closed it). Only an
    // idempotent read may be replayed; a mutating verb might have been
    // applied before the connection died.
    if (!idempotent) {
      MarkDown(i);
      return Unavailable(i, error);
    }
    if (!ConnectWithRetries(i, client, &detail)) {
      return Unavailable(i, detail);
    }
    RestoreSelection(i, client);
    if (!client->Request(line, &reply, &error)) {
      MarkDown(i);
      return Unavailable(i, error);
    }
  }
  MarkUp(i);
  obs::Count("shard.forwarded");
  shard(i).forwarded.Add();
  return reply + "\n";
}

bool RouterConnection::ControlRequest(size_t i, const std::string& line,
                                      std::string* reply) {
  if (ShardDown(i)) return false;
  ShardState& s = shard(i);
  std::lock_guard<std::mutex> lock(s.control_mu);
  std::string detail, error;
  if (!s.control.connected() &&
      !ConnectWithRetries(i, &s.control, &detail)) {
    return false;
  }
  if (s.control.Request(line, reply, &error)) {
    MarkUp(i);
    return true;
  }
  // Scatter verbs are reads: one reconnect + resend.
  if (!ConnectWithRetries(i, &s.control, &detail)) return false;
  if (!s.control.Request(line, reply, &error)) {
    MarkDown(i);
    return false;
  }
  MarkUp(i);
  return true;
}

std::string RouterConnection::ScatterStats() {
  Clock::time_point start = Clock::now();
  long long sessions = 0, live = 0, staging = 0, tuples = 0, sets = 0;
  size_t up = 0;
  for (size_t i = 0; i < shard_count(); ++i) {
    std::string reply;
    if (!ControlRequest(i, "stats", &reply)) continue;
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
  for (size_t i = 0; i < shard_count(); ++i) {
    std::string reply;
    if (!ControlRequest(i, "sessions", &reply)) continue;
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

void RouterConnection::BroadcastShutdown() {
  for (size_t i = 0; i < shard_count(); ++i) {
    std::string reply;
    ControlRequest(i, "shutdown", &reply);  // best effort
  }
}

LineResult RouterConnection::Handle(std::string_view raw) {
  LineResult result;
  std::string_view line = raw;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  line = Trim(line);
  if (line.empty() || line[0] == '#') return result;  // no reply

  std::string_view verb, rest;
  if (line[0] == '+' || line[0] == '-') {
    verb = line.substr(0, 1);
  } else {
    SplitVerb(line, &verb, &rest);
  }
  obs::Count("shard.requests");
  const std::string request(line);

  if (verb == "ping") {
    result.response = "ok pong\n";
  } else if (verb == "quit") {
    result.response = "ok bye\n";
    result.close_connection = true;
  } else if (verb == "shutdown") {
    if (!opts().allow_shutdown) {
      result.response = RouterErr(
          "shutdown-disabled", "this router does not honor the shutdown verb");
    } else {
      BroadcastShutdown();
      result.response = "ok shutdown\n";
      result.close_connection = true;
      result.stop_server = true;
    }
  } else if (verb == "open" || verb == "use") {
    std::string_view name, tail;
    SplitVerb(rest, &name, &tail);
    if (name.empty() || name.size() > 128) {
      result.response = RouterErr(
          "bad-request", "session names are 1-128 characters with no whitespace");
      return result;
    }
    size_t owner = router_->map_.OwnerOf(name);
    result.response = Forward(owner, request, /*idempotent=*/verb == "use");
    if (StartsWith(result.response, "ok ")) {
      current_session_ = std::string(name);
      current_shard_ = static_cast<int>(owner);
      channel_session_[owner] = current_session_;
    }
  } else if (verb == "close") {
    std::string name = rest.empty() ? current_session_ : std::string(rest);
    if (name.empty()) {
      result.response = RouterErr(
          "no-session", "no session selected (open or use one first)");
      return result;
    }
    size_t owner = router_->map_.OwnerOf(name);
    result.response = Forward(owner, request, /*idempotent=*/false);
    if (StartsWith(result.response, "ok ")) {
      if (name == current_session_) {
        current_session_.clear();
        current_shard_ = -1;
      }
      if (channel_session_[owner] == name) channel_session_[owner].clear();
    }
  } else if (verb == "stats") {
    if (current_shard_ >= 0) {
      result.response =
          Forward(static_cast<size_t>(current_shard_), request, true);
    } else {
      result.response = ScatterStats();
    }
  } else if (verb == "sessions") {
    result.response = ScatterSessions();
  } else if (verb == "classify" && !rest.empty()) {
    // An inline-query classify needs no session; hash the query text so
    // the load spreads but stays deterministic.
    size_t target = current_shard_ >= 0
                        ? static_cast<size_t>(current_shard_)
                        : router_->map_.OwnerOf(rest);
    result.response = Forward(target, request, /*idempotent=*/true);
  } else if (verb == "push" || verb == "load" || verb == "begin" ||
             verb == "+" || verb == "-" || verb == "epoch" ||
             verb == "resilience" || verb == "classify" ||
             verb == "explain") {
    if (current_shard_ < 0) {
      result.response = RouterErr(
          "no-session", "no session selected (open or use one first)");
      return result;
    }
    bool idempotent = verb == "resilience" || verb == "classify" ||
                      verb == "explain";
    result.response =
        Forward(static_cast<size_t>(current_shard_), request, idempotent);
  } else {
    result.response = RouterErr(
        "bad-request", "unknown verb '" + std::string(verb) + "'");
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
      map_(options.shards.empty() ? 1 : options.shards.size(),
           options.vnodes),
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
    EngineOptions engine_options;
    engine_options.solver_threads = base.limits.solver_threads;
    engines_.push_back(std::make_unique<ResilienceEngine>(engine_options));
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
