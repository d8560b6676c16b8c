#include "server/protocol.h"

#include <utility>

#include "complexity/classifier.h"
#include "cq/parser.h"
#include "db/tuple_io.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace rescq {

namespace {

std::string Err(const char* code, const std::string& message) {
  obs::Count("server.errors");
  return std::string("err ") + code + " " + message + "\n";
}

/// Parses trailing "key=value" budget options ("witness_limit=100
/// node_budget=50000"). Unmentioned keys keep their passed-in values;
/// false + *error on an unknown key or a bad number.
bool ParseBudgetOptions(std::string_view args, uint64_t* witness_limit,
                        uint64_t* node_budget, std::string* error) {
  for (const std::string& token : SplitTrimmed(args, ' ')) {
    size_t eq = token.find('=');
    std::string key = token.substr(0, eq == std::string::npos ? token.size()
                                                              : eq);
    if (eq == std::string::npos) {
      *error = "expected key=value, got '" + token + "'";
      return false;
    }
    uint64_t* dst = nullptr;
    if (key == "witness_limit") dst = witness_limit;
    if (key == "node_budget") dst = node_budget;
    if (dst == nullptr) {
      *error = "unknown option '" + key + "'";
      return false;
    }
    if (!ParseUint64(token.substr(eq + 1), dst)) {
      *error = key + " needs an unsigned integer, got '" +
               token.substr(eq + 1) + "'";
      return false;
    }
  }
  return true;
}

/// Admission control for one budget knob: an explicit request beyond
/// the max is rejected; an absent/unlimited request is clamped to the
/// default, then to the max. Returns false (budget rejection) with
/// *error set.
bool AdmitBudget(const char* knob, uint64_t requested, bool requested_set,
                 uint64_t def, uint64_t max, uint64_t* effective,
                 std::string* error) {
  uint64_t value = requested_set ? requested : def;
  if (max != 0) {
    if (requested_set && (requested == 0 || requested > max)) {
      *error = StrFormat("%s %llu exceeds the server's max %llu", knob,
                         static_cast<unsigned long long>(requested),
                         static_cast<unsigned long long>(max));
      return false;
    }
    if (value == 0) value = max;
  }
  *effective = value;
  return true;
}

/// The key=value tail shared by the `begin` and `epoch` replies.
std::string OutcomeFields(const EpochOutcome& o, int active_tuples) {
  return StrFormat(
      "n=%d resilience=%d unbreakable=%d lower=%d upper=%d inserted=%d "
      "deleted=%d sets=%zu tuples=%d resolved=%d",
      o.epoch, o.resilience, o.unbreakable ? 1 : 0, o.lower_bound,
      o.upper_bound, o.inserted, o.deleted, o.family_sets, active_tuples,
      o.resolved ? 1 : 0);
}

constexpr char kNoSession[] = "no session selected (open or use one first)";

// Updates first: they are most of a pipelined epoch's lines.
constexpr VerbSpec kVerbs[] = {
    // name, verb, counter, needs_session, mutating, multi_line
    {"+", Verb::kUpdate, "server.requests.update", true, true, false},
    {"-", Verb::kUpdate, "server.requests.update", true, true, false},
    {"open", Verb::kOpen, "server.requests.open", false, true, false},
    {"use", Verb::kUse, "server.requests.use", false, false, false},
    {"push", Verb::kPush, "server.requests.push", true, true, false},
    {"load", Verb::kLoad, "server.requests.load", true, true, false},
    {"begin", Verb::kBegin, "server.requests.begin", true, true, false},
    {"epoch", Verb::kEpoch, "server.requests.epoch", true, true, false},
    {"resilience", Verb::kResilience, "server.requests.resilience", true,
     false, false},
    {"classify", Verb::kClassify, "server.requests.classify", false, false,
     false},
    {"explain", Verb::kExplain, "server.requests.explain", true, false, true},
    {"stats", Verb::kStats, "server.requests.stats", false, false, false},
    {"sessions", Verb::kSessions, "server.requests.sessions", false, false,
     true},
    {"close", Verb::kClose, "server.requests.close", false, true, false},
    {"ping", Verb::kPing, "server.requests.ping", false, false, false},
    {"quit", Verb::kQuit, "server.requests.quit", false, false, false},
    {"shutdown", Verb::kShutdown, "server.requests.shutdown", false, true,
     false},
};
constexpr VerbSpec kUnknownVerb = {"", Verb::kUnknown,
                                   "server.requests.unknown", false, true,
                                   false};

}  // namespace

const VerbSpec& FindVerb(std::string_view name) {
  for (const VerbSpec& spec : kVerbs) {
    if (spec.name == name) return spec;
  }
  return kUnknownVerb;
}

void SplitWord(std::string_view text, std::string_view* word,
               std::string_view* rest) {
  size_t space = text.find_first_of(" \t");
  if (space == std::string_view::npos) {
    *word = text;
    *rest = std::string_view();
    return;
  }
  *word = text.substr(0, space);
  *rest = Trim(text.substr(space + 1));
}

bool ParseRequest(std::string_view raw, Request* req) {
  // Trim drops a CRLF client's trailing '\r' along with the blanks.
  std::string_view line = Trim(raw);
  if (line.empty() || line[0] == '#') return false;
  req->line = line;
  if (line[0] == '+' || line[0] == '-') {
    req->verb = line.substr(0, 1);
    req->args = line;
  } else {
    SplitWord(line, &req->verb, &req->args);
  }
  req->spec = &FindVerb(req->verb);
  return true;
}

bool ValidSessionName(std::string_view name, std::string* error) {
  if (name.empty() || name.size() > 128 ||
      name.find_first_of(" \t") != std::string_view::npos) {
    *error = "session names are 1-128 characters with no whitespace";
    return false;
  }
  return true;
}

ProtocolHandler::ProtocolHandler(SessionRegistry* registry,
                                 ResilienceEngine* engine,
                                 const ServerLimits* limits)
    : registry_(registry), engine_(engine), limits_(limits) {}

ProtocolResult ProtocolHandler::Handle(std::string_view line) {
  ProtocolResult result;
  Request req;
  if (!ParseRequest(line, &req)) return result;  // no reply

  Clock::time_point start = Clock::now();
  obs::Count("server.requests");
  obs::Count(req.spec->counter);
  std::string& reply = result.response;
  if (req.spec->needs_session && current_ == nullptr) {
    reply = Err("no-session", kNoSession);
  } else {
    switch (req.spec->verb) {
      case Verb::kUpdate: reply = DoUpdate(req.args); break;
      case Verb::kOpen: reply = DoOpen(req.args); break;
      case Verb::kUse: reply = DoUse(req.args); break;
      case Verb::kPush: reply = DoPush(req.args); break;
      case Verb::kLoad: reply = DoLoad(req.args); break;
      case Verb::kBegin: reply = DoBegin(req.args); break;
      case Verb::kEpoch:
        reply = DoEpoch();
        obs::ObserveLatencyMs("server.epoch_ms", MsSince(start));
        break;
      case Verb::kResilience: reply = DoResilience(); break;
      case Verb::kClassify: reply = DoClassify(req.args); break;
      case Verb::kExplain: reply = DoExplain(); break;
      case Verb::kStats: reply = DoStats(); break;
      case Verb::kSessions: reply = DoSessions(); break;
      case Verb::kClose: reply = DoClose(req.args); break;
      case Verb::kPing: reply = "ok pong\n"; break;
      case Verb::kQuit:
        reply = "ok bye\n";
        result.close_connection = true;
        break;
      case Verb::kShutdown:
        if (!limits_->allow_shutdown) {
          reply = Err("shutdown-disabled",
                      "this server does not honor the shutdown verb");
          break;
        }
        reply = "ok shutdown\n";
        result.close_connection = true;
        result.stop_server = true;
        break;
      case Verb::kUnknown:
        reply = Err("bad-request",
                    "unknown verb '" + std::string(req.verb) + "'");
        break;
    }
  }
  obs::ObserveLatencyMs("server.request_ms", MsSince(start));

  // Eviction bookkeeping after the request ran: the touched session is
  // stamped *first*, so a sweep triggered by this very request never
  // counts it as idle. With both knobs at their zero defaults (every
  // golden/byte-reproducible script) this is two atomic loads and out.
  if (limits_->evict_idle_ms > 0 || limits_->max_resident_bytes > 0) {
    int64_t now_ms = SteadyNowMs();
    if (current_ != nullptr) {
      current_->last_touch_ms.store(now_ms, std::memory_order_relaxed);
    }
    registry_->EvictColdSessions(now_ms, limits_->evict_idle_ms,
                                 limits_->max_resident_bytes);
  }
  return result;
}

std::string ProtocolHandler::DoOpen(std::string_view args) {
  std::string_view name, query_text;
  SplitWord(args, &name, &query_text);
  std::string error;
  if (!ValidSessionName(name, &error)) return Err("bad-request", error);
  if (query_text.empty()) {
    return Err("bad-request", "open needs a query: open <session> <query>");
  }
  ParseResult parsed = ParseQuery(query_text);
  if (!parsed.ok) return Err("parse", parsed.error);

  std::shared_ptr<SessionEntry> entry;
  if (!registry_->Open(std::string(name), &entry, &error)) {
    if (error.find("already exists") != std::string::npos) {
      return Err("session-exists", error);
    }
    obs::Count("server.rejected.limit");
    return Err("limit", error);
  }
  {
    std::unique_lock<std::shared_mutex> lock(entry->mu);
    entry->query = parsed.query;
    entry->query_text = parsed.query.ToString();
  }
  // Warm the shared plan cache: every session for an already-seen query
  // (the loadgen steady state) plans exactly once per server lifetime.
  engine_->Plan(parsed.query);
  current_ = std::move(entry);
  ClearPending();
  obs::SetGauge("server.active_sessions",
                static_cast<double>(registry_->size()));
  return "ok open " + std::string(name) + " staging\n";
}

std::string ProtocolHandler::DoUse(std::string_view args) {
  std::string error;
  if (!ValidSessionName(args, &error)) return Err("bad-request", error);
  std::shared_ptr<SessionEntry> entry = registry_->Find(std::string(args));
  if (entry == nullptr) {
    return Err("no-session", "no session named '" + std::string(args) + "'");
  }
  current_ = std::move(entry);
  ClearPending();
  std::shared_lock<std::shared_mutex> lock(current_->mu);
  return "ok use " + current_->name +
         (current_->live() ? " live\n" : " staging\n");
}

std::string ProtocolHandler::DoPush(std::string_view args) {
  const std::shared_ptr<SessionEntry>& entry = current_;
  std::string error;
  std::string relation;
  std::vector<std::string> constants;
  if (!ParseFactLine(args, &relation, &constants, &error)) {
    return Err("parse", error);
  }
  std::unique_lock<std::shared_mutex> lock(entry->mu);
  if (entry->closed) return Err("closed", "session was closed");
  if (entry->live()) {
    return Err("not-staging",
               "session is live; push base facts before begin");
  }
  if (limits_->max_base_tuples != 0 &&
      entry->staging_tuples >= limits_->max_base_tuples) {
    obs::Count("server.rejected.limit");
    return Err("limit",
               StrFormat("base limit reached (max_base_tuples=%zu)",
                         limits_->max_base_tuples));
  }
  if (!AddFactChecked(&entry->staging, relation, constants, &error)) {
    return Err("parse", error);
  }
  entry->staging_tuples =
      static_cast<size_t>(entry->staging.NumActiveTuples());
  return StrFormat("ok push %zu\n", entry->staging_tuples);
}

std::string ProtocolHandler::DoLoad(std::string_view args) {
  const std::shared_ptr<SessionEntry>& entry = current_;
  std::string error;
  if (!limits_->allow_load) {
    return Err("bad-request", "this server does not honor the load verb");
  }
  if (args.empty()) return Err("bad-request", "load needs a file path");

  // Read outside the session lock (file I/O can be slow), then swap in.
  Database loaded;
  if (!LoadTupleFile(std::string(args), &loaded, &error)) {
    return Err("io", error);
  }
  size_t tuples = static_cast<size_t>(loaded.NumActiveTuples());
  if (limits_->max_base_tuples != 0 && tuples > limits_->max_base_tuples) {
    obs::Count("server.rejected.limit");
    return Err("limit",
               StrFormat("file has %zu tuples, over max_base_tuples=%zu",
                         tuples, limits_->max_base_tuples));
  }
  std::unique_lock<std::shared_mutex> lock(entry->mu);
  if (entry->closed) return Err("closed", "session was closed");
  if (entry->live()) {
    return Err("not-staging", "session is live; load replaces a staged base");
  }
  entry->staging = std::move(loaded);
  entry->staging_tuples = tuples;
  return StrFormat("ok load %zu\n", tuples);
}

std::string ProtocolHandler::DoBegin(std::string_view args) {
  const std::shared_ptr<SessionEntry>& entry = current_;
  std::string error;
  uint64_t witness_req = 0, node_req = 0;
  bool witness_set = args.find("witness_limit=") != std::string_view::npos;
  bool node_set = args.find("node_budget=") != std::string_view::npos;
  if (!ParseBudgetOptions(args, &witness_req, &node_req, &error)) {
    return Err("bad-request", error);
  }
  uint64_t witness_limit = 0, node_budget = 0;
  if (!AdmitBudget("witness_limit", witness_req, witness_set,
                   limits_->default_witness_limit, limits_->max_witness_limit,
                   &witness_limit, &error) ||
      !AdmitBudget("node_budget", node_req, node_set,
                   limits_->default_node_budget, limits_->max_node_budget,
                   &node_budget, &error)) {
    obs::Count("server.rejected.budget");
    return Err("budget", error);
  }

  ExactOptions options;
  options.witness_limit = static_cast<size_t>(witness_limit);
  options.node_budget = node_budget;
  options.solver_threads = limits_->solver_threads;

  std::unique_lock<std::shared_mutex> lock(entry->mu);
  if (entry->closed) return Err("closed", "session was closed");
  if (entry->live()) return Err("not-staging", "session already began");
  entry->session = std::make_unique<IncrementalSession>(
      entry->query, std::move(entry->staging), options);
  entry->staging = Database();
  const EpochOutcome& outcome = entry->session->Peek();
  entry->resident_bytes.store(entry->session->ApproxMemory().TotalBytes(),
                              std::memory_order_relaxed);
  if (entry->session->poisoned()) {
    return Err("budget", outcome.error);
  }
  return "ok begin " +
         OutcomeFields(outcome, entry->session->db().NumActiveTuples()) + "\n";
}

std::string ProtocolHandler::DoUpdate(std::string_view line) {
  const std::shared_ptr<SessionEntry>& entry = current_;
  std::string error;
  Update update;
  if (!ParseUpdateLine(line, &update, &error)) return Err("parse", error);
  if (limits_->max_epoch_updates != 0 &&
      pending_.size() >= limits_->max_epoch_updates) {
    obs::Count("server.rejected.limit");
    return Err("limit",
               StrFormat("pending epoch limit reached (max_epoch_updates=%zu)",
                         limits_->max_epoch_updates));
  }

  // Validate the candidate against the live database's arities and the
  // batch's own now, so the offending line (not the later `epoch`) gets
  // the structured error.
  {
    std::shared_lock<std::shared_mutex> lock(entry->mu);
    if (entry->closed) return Err("closed", "session was closed");
    if (!entry->live()) {
      return Err("not-live", "session has no base yet (begin first)");
    }
    if (!pending_arity_.Admit(update, entry->session->db(),
                               /*epoch_no=*/1, &error)) {
      return Err("parse", error);
    }
  }
  pending_.push_back(std::move(update));
  return StrFormat("ok queued %zu\n", pending_.size());
}

std::string ProtocolHandler::DoEpoch() {
  const std::shared_ptr<SessionEntry>& entry = current_;
  std::string error;
  UpdateLog probe;
  probe.epochs.emplace_back();
  probe.epochs[0].updates = std::move(pending_);
  ClearPending();

  std::unique_lock<std::shared_mutex> lock(entry->mu);
  if (entry->closed) return Err("closed", "session was closed");
  if (!entry->live()) {
    return Err("not-live", "session has no base yet (begin first)");
  }
  if (entry->session->poisoned()) {
    return Err("poisoned", entry->session->Peek().error);
  }
  // Re-validate the whole batch under the exclusive lock: another
  // connection may have reshaped the database since the updates were
  // queued, and ApplyEpoch treats an arity mismatch as a programmer
  // error.
  if (!ValidateUpdateLog(probe, entry->session->db(), &error)) {
    return Err("parse", error);
  }
  EpochOutcome outcome = entry->session->Apply(probe.epochs[0]);
  entry->resident_bytes.store(entry->session->ApproxMemory().TotalBytes(),
                              std::memory_order_relaxed);
  if (entry->session->poisoned()) {
    return Err("budget", outcome.error);
  }
  return "ok epoch " +
         OutcomeFields(outcome, entry->session->db().NumActiveTuples()) + "\n";
}

std::string ProtocolHandler::DoResilience() {
  const std::shared_ptr<SessionEntry>& entry = current_;
  std::shared_lock<std::shared_mutex> lock(entry->mu);
  if (entry->closed) return Err("closed", "session was closed");
  if (!entry->live()) {
    return Err("not-live", "session has no base yet (begin first)");
  }
  if (entry->session->poisoned()) {
    return Err("poisoned", entry->session->Peek().error);
  }
  const EpochOutcome& o = entry->session->Peek();
  if (o.unbreakable) return "ok resilience unbreakable\n";
  if (o.lower_bound < o.upper_bound) {
    return StrFormat("ok resilience %d unproven\n", o.resilience);
  }
  return StrFormat("ok resilience %d\n", o.resilience);
}

std::string ProtocolHandler::DoClassify(std::string_view args) {
  Query q;
  if (!args.empty()) {
    ParseResult parsed = ParseQuery(args);
    if (!parsed.ok) return Err("parse", parsed.error);
    q = parsed.query;
  } else {
    if (current_ == nullptr) return Err("no-session", kNoSession);
    std::shared_lock<std::shared_mutex> lock(current_->mu);
    if (current_->closed) return Err("closed", "session was closed");
    q = current_->query;
  }
  Classification c = ClassifyResilience(q);
  return std::string("ok classify ") + ComplexityName(c.complexity) + " " +
         c.pattern + "\n";
}

std::string ProtocolHandler::DoExplain() {
  const std::shared_ptr<SessionEntry>& entry = current_;
  Query q;
  {
    std::shared_lock<std::shared_mutex> lock(entry->mu);
    if (entry->closed) return Err("closed", "session was closed");
    q = entry->query;
  }
  // The shared engine's plan cache makes this a lookup after the first
  // explain/open of the query, for any session.
  std::shared_ptr<const ResiliencePlan> plan = engine_->Plan(q);
  std::string text = plan->Explain();
  std::vector<std::string> lines = Split(text, '\n');
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  std::string reply = StrFormat("ok explain %zu\n", lines.size());
  for (const std::string& l : lines) reply += l + "\n";
  return reply;
}

std::string ProtocolHandler::DoStats() {
  if (current_ == nullptr) {
    // Server-scope stats: one deterministic, summable line. The shard
    // router scatter-gathers exactly this form and adds the fields up.
    size_t live = 0, staging = 0, sets = 0;
    long long tuples = 0;
    for (const std::shared_ptr<SessionEntry>& entry : registry_->List()) {
      std::shared_lock<std::shared_mutex> lock(entry->mu);
      if (entry->live()) {
        ++live;
        tuples += entry->session->db().NumActiveTuples();
        sets += entry->session->Peek().family_sets;
      } else {
        ++staging;
        tuples += static_cast<long long>(entry->staging_tuples);
      }
    }
    return StrFormat(
        "ok stats scope=server sessions=%zu live=%zu staging=%zu "
        "tuples=%lld sets=%zu\n",
        live + staging, live, staging, tuples, sets);
  }
  std::shared_ptr<SessionEntry> entry = current_;

  std::shared_lock<std::shared_mutex> lock(entry->mu);
  if (entry->closed) return Err("closed", "session was closed");
  if (!entry->live()) {
    return StrFormat("ok stats session=%s state=staging tuples=%zu pending=%zu\n",
                     entry->name.c_str(), entry->staging_tuples,
                     pending_.size());
  }
  const EpochOutcome& o = entry->session->Peek();
  // Raw byte counts stay in the mem.* gauges (they vary across
  // platforms); the stats line carries only the deterministic eviction
  // state so golden transcripts keep pinning every byte.
  return StrFormat(
      "ok stats session=%s state=live epoch=%d tuples=%d sets=%zu "
      "resilience=%d lower=%d upper=%d unbreakable=%d pending=%zu "
      "poisoned=%d index=%s evictions=%llu rebuilds=%llu\n",
      entry->name.c_str(), o.epoch, entry->session->db().NumActiveTuples(),
      o.family_sets, o.resilience, o.lower_bound, o.upper_bound,
      o.unbreakable ? 1 : 0, pending_.size(),
      entry->session->poisoned() ? 1 : 0,
      entry->session->index_resident() ? "resident" : "evicted",
      static_cast<unsigned long long>(entry->session->evictions()),
      static_cast<unsigned long long>(entry->session->rebuilds()));
}

std::string ProtocolHandler::DoSessions() {
  std::vector<std::shared_ptr<SessionEntry>> entries = registry_->List();
  std::string reply = StrFormat("ok sessions %zu\n", entries.size());
  for (const std::shared_ptr<SessionEntry>& entry : entries) {
    std::shared_lock<std::shared_mutex> lock(entry->mu);
    if (entry->live()) {
      reply += StrFormat("%s live epoch=%d tuples=%d\n", entry->name.c_str(),
                         entry->session->Peek().epoch,
                         entry->session->db().NumActiveTuples());
    } else {
      reply += StrFormat("%s staging tuples=%zu\n", entry->name.c_str(),
                         entry->staging_tuples);
    }
  }
  return reply;
}

std::string ProtocolHandler::DoClose(std::string_view args) {
  std::string name;
  if (!args.empty()) {
    name = std::string(args);
  } else {
    if (current_ == nullptr) return Err("no-session", kNoSession);
    name = current_->name;
  }
  std::string error;
  if (!registry_->Close(name, &error)) return Err("no-session", error);
  if (current_ != nullptr && current_->name == name) {
    current_.reset();
    ClearPending();
  }
  obs::SetGauge("server.active_sessions",
                static_cast<double>(registry_->size()));
  return "ok close " + name + "\n";
}

void ProtocolHandler::ClearPending() {
  pending_.clear();
  pending_arity_.Clear();
}

}  // namespace rescq
