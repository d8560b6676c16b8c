// route_churn: ShardRouter over two in-process shards. Each connection
// sends one line per round trip, as loadgen does: `use` of its next
// session, about 20 updates, then `epoch`, `resilience` and `stats`.
// Every session is q_vc over its own ~1k-tuple vc_er base. The router
// hop dominates the single-line requests; IncrementalSession::Apply and
// the exact re-solve dominate the epochs.
//
// A connection takes turns over several sessions because one vc_er
// instance is a small sample: the epoch cost of one seed's graph differs
// from the next by a quarter, and a run's medians only settle when they
// pool many instances.

#include <algorithm>

#include "bench.h"
#include "cq/parser.h"
#include "obs/metrics.h"
#include "server/router.h"
#include "util/string_util.h"

namespace perfbench {

namespace {

constexpr int kShards = 2;

/// The routed fleet: the production InProcessShards, or (traced)
/// ServeStacks whose handlers record spans, behind one ShardRouter.
class Fleet : public Service {
 public:
  explicit Fleet(SpanSink* sink) : sink_(sink) {}

  bool Start(std::string* error) override {
    std::vector<rescq::ShardSpec> specs;
    if (sink_ == nullptr) {
      rescq::ServerOptions options;
      options.threads = kServerThreads;
      if (!shards_.Start(kShards, options, error)) return false;
      specs = shards_.specs();
    } else {
      for (int i = 0; i < kShards; ++i) {
        traced_.push_back(std::make_unique<ServeStack>(sink_));
        if (!traced_.back()->Start(error)) return false;
        specs.push_back(rescq::ShardSpec{"127.0.0.1", traced_.back()->port()});
      }
    }
    rescq::RouterOptions options;
    options.threads = kServerThreads;
    options.shards = specs;
    options.request_timeout_ms = 60000;
    router_ = std::make_unique<rescq::ShardRouter>(options);
    return router_->Start(error);
  }

  int port() const override { return router_->port(); }

  void Stop() override {
    if (router_) router_->Stop();
    for (auto& stack : traced_) stack->Stop();
    shards_.Stop();
  }

 private:
  SpanSink* sink_;
  rescq::InProcessShards shards_;
  std::vector<std::unique_ptr<ServeStack>> traced_;
  std::unique_ptr<rescq::ShardRouter> router_;
};

/// One round trip for session `s`; recorded when timed. False once the
/// connection is unusable.
bool Request(ClientConnection* conn, ServedSession* s,
             const std::string& line, bool timed, std::string* reply,
             RunResult* result) {
  OpRecord op;
  op.kind = LineKind(line);
  op.first_seq = op.last_seq = s->lines_sent++;
  std::string error;
  op.start = Clock::now();
  if (!conn->client.Request(line, reply, &error)) {
    result->Fail(s->input.name + " '" + line + "': " + error);
    ++conn->unavailable;
    conn->broken = true;
    return false;
  }
  op.end = Clock::now();
  if (!rescq::StartsWith(*reply, "ok ")) {
    result->Fail(s->input.name + " '" + line + "': " + *reply);
    if (rescq::StartsWith(*reply, "err shard_unavailable")) {
      ++conn->unavailable;
    }
  }
  if (timed) s->ops.push_back(op);
  return true;
}

/// Selects the connection's next session and runs its next epoch.
void EpochRound(ClientConnection* conn, bool timed, RunResult* result) {
  size_t total = 0;
  for (const ServedSession& s : conn->sessions) total += s.answers.size();
  ServedSession& s = conn->sessions[total % conn->sessions.size()];
  const rescq::Epoch& epoch =
      s.input.log.epochs[s.answers.size() % s.input.log.epochs.size()];
  std::string reply, answer;
  if (!Request(conn, &s, "use " + s.input.name, timed, &reply, result)) return;
  for (const rescq::Update& u : epoch.updates) {
    if (!Request(conn, &s, UpdateLine(u), timed, &reply, result)) return;
  }
  if (!Request(conn, &s, "epoch", timed, &reply, result) ||
      !Request(conn, &s, "resilience", timed, &answer, result) ||
      !Request(conn, &s, "stats", timed, &reply, result)) {
    return;
  }
  s.answers.push_back(answer);
}

}  // namespace

RunResult RunRouteChurn(const RunOptions& options) {
  RunResult result;
  rescq::obs::SetMetricsEnabled(true);  // as `rescq route` runs

  ServingSpec spec;
  spec.prefix = "route";
  spec.vertices = 500;
  spec.density = 0.005;
  spec.forward_epochs = 24;
  spec.updates_per_epoch = 20;
  spec.sessions_per_connection = 24;
  spec.seed_salt = 2;
  spec.make_service = [](SpanSink* sink) {
    return std::make_unique<Fleet>(sink);
  };
  spec.round = EpochRound;
  ServingRun run;
  if (!RunServing(options, spec, &run, &result)) return result;

  std::vector<double> epoch_ms, request_ms;
  for (const ClientConnection& conn : run.connections) {
    for (const ServedSession& s : conn.sessions) {
      for (const OpRecord& op : s.ops) {
        (op.kind == 'e' ? epoch_ms : request_ms)
            .push_back(MsBetween(op.start, op.end));
      }
    }
  }
  double ops = static_cast<double>(epoch_ms.size() + request_ms.size());
  result.attempted += epoch_ms.size() + request_ms.size();
  result.Set("setup_s", run.setup_s, "s");
  result.Set("ops_per_s", ops / run.elapsed_s, "1/s");
  result.Set("epoch_p50_ms", Percentile(epoch_ms, 0.5), "ms");
  result.Set("epoch_p90_ms", Percentile(epoch_ms, 0.9), "ms");
  result.Set("request_p50_ms", Percentile(request_ms, 0.5), "ms");
  result.Set("cpu_ms_per_op", ops > 0 ? run.cpu_s * 1000.0 / ops : 0, "ms");
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  result.Note(rescq::StrFormat(
      "route_churn: %zu requests (%zu epochs) over %d connections, %d "
      "sessions each, and %d shards in %.2f s",
      epoch_ms.size() + request_ms.size(), epoch_ms.size(), kConnections,
      spec.sessions_per_connection, kShards, run.elapsed_s));
  if (!options.trace) return result;

  // Per-layer metrics: each routed request joins the shard Handle span
  // of the same line; the router hop is the request's self time.
  std::vector<double> hop_us, update_us, read_us, overhead;
  double request_total = 0, hop_total = 0, attributed = 0, failures = 0;
  size_t replay = 0;
  for (const ClientConnection& conn : run.connections) {
    failures += static_cast<double>(conn.unavailable);
    for (const ServedSession& s : conn.sessions) {
      std::vector<HandleSpan> spans = run.sink.Session(s.input.name);
      size_t period = s.input.log.epochs.size();
      size_t epoch = s.warmup_epochs;
      for (const OpRecord& op : s.ops) {
        if (op.first_seq >= spans.size() ||
            spans[op.first_seq].seq != op.first_seq) {
          result.Fail("trace: missing shard spans for " + s.input.name);
          break;
        }
        const HandleSpan& span = spans[op.first_seq];
        double total = UsBetween(op.start, op.end);
        double handle = UsBetween(span.start, span.end);
        request_total += total;
        hop_total += total - handle;
        // Directly timed parts, as in ingest_bulk: the wait before the
        // shard's handler starts, the handler, and the wait after it.
        attributed += std::max(0.0, UsBetween(op.start, span.start)) +
                      handle + std::max(0.0, UsBetween(span.end, op.end));
        if (op.kind != 'e') hop_us.push_back(total - handle);
        if (op.kind == 'u') update_us.push_back(handle);
        if (op.kind == 'r') read_us.push_back(handle);
        if (op.kind == 'e') {
          overhead.push_back(handle / 1000.0 -
                             run.replays[replay].apply_ms[epoch++ % period]);
        }
      }
      ++replay;
    }
  }
  result.Set("router.hop_us", Median(hop_us), "us");
  result.Set("router.hop_share",
             request_total > 0 ? hop_total / request_total : 0, "ratio");
  result.Set("router.failures", failures, "count");
  result.Set("protocol.update_us", Median(update_us), "us");
  result.Set("protocol.epoch_overhead_ms", Median(overhead), "ms");
  result.Set("protocol.read_us", Median(read_us), "us");
  result.Set("trace.coverage_pct",
             request_total > 0 ? 100.0 * attributed / request_total : 0, "%");
  result.Set("workload.generate_ms", run.generate_ms, "ms");
  result.Note(rescq::StrFormat(
      "route_churn trace: router hop %.1f%% of %.1f ms routed request time",
      request_total > 0 ? 100.0 * hop_total / request_total : 0,
      request_total / 1000.0));
  ServingLayerMetrics(rescq::MustParseQuery(kVcQuery), run.connections,
                      run.replays, &result);
  return result;
}

}  // namespace perfbench
