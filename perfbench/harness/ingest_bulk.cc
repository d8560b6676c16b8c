// ingest_bulk: the documented "pipe an update file into rescq serve"
// use. Each connection owns q_vc sessions over ~1k-tuple vc_er bases
// read in with `load`, and sends every churn epoch as one pipelined
// burst — `use` of the session, its update lines, then `epoch`, then
// `resilience` — timing the burst until its last reply arrives. No
// router: the work sits in the transport's reply path, the protocol's
// update handling and the incremental epoch. A connection takes turns
// over a few sessions so that a run pools several instances' epoch
// costs.

#include "bench.h"
#include "cq/parser.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace perfbench {

namespace {

/// Sends the next session's next epoch as one burst and checks every
/// reply.
void Burst(ClientConnection* conn, bool timed, RunResult* result) {
  size_t total = 0;
  for (const ServedSession& s : conn->sessions) total += s.answers.size();
  ServedSession& s = conn->sessions[total % conn->sessions.size()];
  const rescq::Epoch& epoch =
      s.input.log.epochs[s.answers.size() % s.input.log.epochs.size()];
  std::string burst = "use " + s.input.name + "\n";
  for (const rescq::Update& u : epoch.updates) burst += UpdateLine(u) + "\n";
  burst += "epoch\nresilience\n";
  size_t lines = epoch.updates.size() + 3;

  OpRecord op;
  op.kind = 'b';
  op.first_seq = s.lines_sent;
  op.last_seq = s.lines_sent + lines - 1;
  s.lines_sent += lines;
  std::vector<std::string> replies;
  std::string error;
  op.start = Clock::now();
  if (!conn->client.Send(burst, &error) ||
      !conn->client.ReadReplies(lines, &replies, &op.reads, &error)) {
    result->Fail(s.input.name + " burst: " + error);
    conn->broken = true;
    return;
  }
  op.end = Clock::now();
  for (size_t i = 0; i < replies.size(); ++i) {
    const char* expect = i == 0           ? "ok use "
                         : i + 2 < lines  ? "ok queued "
                         : i + 2 == lines ? "ok epoch "
                                          : "ok resilience";
    if (!rescq::StartsWith(replies[i], expect)) {
      result->Fail(s.input.name + " burst reply '" + replies[i] + "'");
    }
  }
  s.answers.push_back(replies.back());
  if (timed) s.ops.push_back(op);
}

}  // namespace

RunResult RunIngestBulk(const RunOptions& options) {
  RunResult result;
  rescq::obs::SetMetricsEnabled(true);  // as `rescq serve` runs

  ServingSpec spec;
  spec.prefix = "ingest";
  // ~500 vertices at average degree ~2.5: about 1.1k tuples, and an
  // epoch of a few hundred updates re-solves in milliseconds.
  spec.vertices = 500;
  spec.density = 0.005;
  spec.forward_epochs = 8;
  spec.updates_per_epoch = 250;
  spec.sessions_per_connection = 4;
  spec.seed_salt = 1;
  spec.make_service = [](SpanSink* sink) {
    return std::make_unique<ServeStack>(sink);
  };
  spec.round = Burst;
  ServingRun run;
  if (!RunServing(options, spec, &run, &result)) return result;

  std::vector<double> burst_ms;
  for (const ClientConnection& conn : run.connections) {
    for (const ServedSession& s : conn.sessions) {
      for (const OpRecord& op : s.ops) {
        burst_ms.push_back(MsBetween(op.start, op.end));
      }
    }
  }
  double ops = static_cast<double>(burst_ms.size());
  result.attempted += burst_ms.size();
  result.Set("setup_s", run.setup_s, "s");
  result.Set("ops_per_s", ops / run.elapsed_s, "1/s");
  result.Set("epoch_p50_ms", Percentile(burst_ms, 0.5), "ms");
  result.Set("epoch_p90_ms", Percentile(burst_ms, 0.9), "ms");
  result.Set("cpu_ms_per_op", ops > 0 ? run.cpu_s * 1000.0 / ops : 0, "ms");
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  result.Note(rescq::StrFormat(
      "ingest_bulk: %zu bursts of ~%d lines over %d connections, %d "
      "sessions each, in %.2f s",
      burst_ms.size(), spec.updates_per_epoch + 3, kConnections,
      spec.sessions_per_connection, run.elapsed_s));
  if (!options.trace) return result;

  // Per-layer metrics: join each burst to its lines' Handle spans.
  std::vector<double> stall, reads, update_us, read_us, overhead;
  double op_total = 0, attributed = 0;
  std::vector<const ServedSession*> sessions;
  for (const ClientConnection& conn : run.connections) {
    for (const ServedSession& s : conn.sessions) sessions.push_back(&s);
  }
  for (size_t c = 0; c < sessions.size(); ++c) {
    const ServedSession& s = *sessions[c];
    std::vector<HandleSpan> spans = run.sink.Session(s.input.name);
    size_t period = s.input.log.epochs.size();
    for (size_t i = 0; i < s.ops.size(); ++i) {
      const OpRecord& op = s.ops[i];
      if (op.last_seq >= spans.size() ||
          spans[op.last_seq].seq != op.last_seq) {
        result.Fail("trace: missing handler spans for " + s.input.name);
        break;
      }
      double burst = MsBetween(op.start, op.end), handle = 0;
      for (uint64_t k = op.first_seq; k <= op.last_seq; ++k) {
        const HandleSpan& span = spans[k];
        double us = UsBetween(span.start, span.end);
        handle += us / 1000.0;
        if (span.kind == 'u') update_us.push_back(us);
        if (span.kind == 'r') read_us.push_back(us);
        if (span.kind == 'e') {
          size_t epoch = (s.warmup_epochs + i) % period;
          overhead.push_back(us / 1000.0 - run.replays[c].apply_ms[epoch]);
        }
      }
      stall.push_back(burst - handle);
      reads.push_back(op.reads);
      // Directly timed parts: the handler spans, the wait before the
      // first one starts and the wait after the last one ends. The gaps
      // between consecutive lines stay unattributed.
      double head = MsBetween(op.start, spans[op.first_seq].start);
      double tail = MsBetween(spans[op.last_seq].end, op.end);
      op_total += burst;
      attributed += handle + head + tail;
    }
  }
  result.Set("transport.stall_ms", Median(stall), "ms");
  result.Set("transport.reads_per_burst", Median(reads), "count");
  result.Set("protocol.update_us", Median(update_us), "us");
  result.Set("protocol.epoch_overhead_ms", Median(overhead), "ms");
  result.Set("protocol.read_us", Median(read_us), "us");
  result.Set("trace.coverage_pct",
             op_total > 0 ? 100.0 * attributed / op_total : 0, "%");
  result.Set("workload.generate_ms", run.generate_ms, "ms");
  ServingLayerMetrics(rescq::MustParseQuery(kVcQuery), run.connections,
                      run.replays, &result);
  return result;
}

}  // namespace perfbench
