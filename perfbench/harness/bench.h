#ifndef RESCQ_PERFBENCH_BENCH_H_
#define RESCQ_PERFBENCH_BENCH_H_

// Shared pieces of the perfbench harness: run options, the result a
// workload reports, timing and percentile helpers, the cyclic update
// log every serving workload replays, the pipelined client, the span
// sink, and the timing wrapper the traced runs put around a
// LineConnectionHandler.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "db/delta.h"
#include "resilience/incremental.h"
#include "resilience/engine.h"
#include "server/line_server.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/session_registry.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line options shared by every workload.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;  // where server-side tuple files are written
};

/// One named metric value. Units follow BENCHMARK.json.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports: the op accounting, the metrics, and
/// human-readable lines printed above the JSON result.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;  // included in failed; listed separately
  bool checked = false;     // every correctness check ran to completion
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
  void Fail(const std::string& why);
};

double MsBetween(Clock::time_point a, Clock::time_point b);
double UsBetween(Clock::time_point a, Clock::time_point b);

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 for an
/// empty one.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Process CPU time (user + system) in seconds, all threads.
double ProcessCpuSeconds();
/// Peak resident set size of the process in MiB (VmHWM).
double PeakRssMb();

/// The query every serving workload runs: q_vc, NP-complete (Prop 9),
/// so each epoch's re-solve goes through the exact hitting-set search.
inline constexpr const char* kVcQuery = "R(x), S(x,y), R(y)";

/// One session's input: a vc_er base and a cyclic update log over it.
struct SessionInput {
  std::string name;
  rescq::Database base;
  /// `forward` generated mixed-churn epochs followed by their exact
  /// inverses in reverse order, so applying the whole log returns the
  /// active database to `base`. Epoch j of a run is log.epochs[j % size]
  /// and the database state after it depends only on (j + 1) % size;
  /// every epoch changes real tuples, however long the run.
  rescq::UpdateLog log;
};

/// Builds a SessionInput: a vc_er instance of `size` vertices at
/// `density` and `forward` churn epochs of about `updates` updates each.
SessionInput MakeSessionInput(const std::string& name, int size,
                              double density, int forward, int updates,
                              uint64_t seed);

/// "+ R(a)" / "- S(a,b)": one update as a protocol line.
std::string UpdateLine(const rescq::Update& u);

/// The reply `resilience` gives for an outcome (protocol.cc's wording).
std::string ResilienceReply(const rescq::EpochOutcome& o);

/// Replays one full cycle of `input.log` on an in-process
/// IncrementalSession — the reference every served answer is checked
/// against, and (traced) the source of the incremental-layer timings.
struct Replay {
  std::vector<std::string> answers;  // after epoch j of the cycle
  std::vector<double> apply_ms;      // Apply time of epoch j
  std::vector<size_t> delta_witnesses;
  std::vector<bool> resolved;
  double begin_ms = 0;
  double bytes_per_set = 0;
};
Replay ReplayCycle(const rescq::Query& q, const SessionInput& input);

/// Checks a session's served answers against the replay (answer k is
/// the reply after the session's k-th epoch) and its final answer
/// against ComputeResilienceExact on the same state. Adds mismatches to
/// `result`.
void CheckServedAnswers(const rescq::Query& q, const SessionInput& input,
                        const Replay& replay,
                        const std::vector<std::string>& served,
                        RunResult* result);

/// Writes `db` as a tuple file under `dir`; returns the path.
std::string WriteBase(const std::string& dir, const std::string& stem,
                      const rescq::Database& db);

/// A blocking line client that can pipeline: Send writes a whole burst,
/// ReadReplies collects a given number of reply lines. Every wait for a
/// reply is bounded (60 s).
class PipeClient {
 public:
  PipeClient() = default;
  ~PipeClient();
  PipeClient(const PipeClient&) = delete;
  PipeClient& operator=(const PipeClient&) = delete;

  bool Connect(int port, std::string* error);
  bool Send(const std::string& data, std::string* error);
  /// Reads `count` reply lines into *lines; *reads counts recv() calls.
  bool ReadReplies(size_t count, std::vector<std::string>* lines, int* reads,
                   std::string* error);
  /// Send + ReadReplies for one line.
  bool Request(const std::string& line, std::string* reply,
               std::string* error);
  void Close();

 private:
  int fd_ = -1;
  int timeout_ms_ = 60000;
  std::string buffer_;
};

/// One handled request line, as the timing wrapper saw it.
struct HandleSpan {
  std::string session;  // sniffed from `open` / `use`
  uint64_t seq = 0;     // index of the line among its session's lines
  char kind = '?';      // 'u' update, 'e' epoch, 'r' read, 's' setup
  Clock::time_point start, end;
};

/// Collects spans from every wrapped connection; read after the servers
/// stopped.
class SpanSink {
 public:
  void Add(std::vector<HandleSpan> spans);
  /// Spans of `session`, ordered by seq.
  std::vector<HandleSpan> Session(const std::string& session) const;

 private:
  mutable std::mutex mu_;
  std::vector<HandleSpan> spans_;
};

/// The protocol line's request class: 'u' for `+`/`-`, 'e' for `epoch`,
/// 'r' for `resilience`/`stats`, 's' otherwise.
char LineKind(std::string_view line);

/// A LineConnectionHandler that times every Handle call of the wrapped
/// handler and hands its spans to the sink when the connection closes.
class TimedHandler : public rescq::LineConnectionHandler {
 public:
  TimedHandler(std::unique_ptr<rescq::LineConnectionHandler> inner,
               SpanSink* sink);
  ~TimedHandler() override;
  TimedHandler(const TimedHandler&) = delete;
  TimedHandler& operator=(const TimedHandler&) = delete;

  rescq::LineResult Handle(std::string_view line) override;

 private:
  std::unique_ptr<rescq::LineConnectionHandler> inner_;
  SpanSink* sink_;
  std::string session_;
  std::map<std::string, uint64_t> lines_;  // per session
  std::vector<HandleSpan> spans_;
};

/// What a serving workload's clients connect to: a server or a fleet.
class Service {
 public:
  virtual ~Service() = default;
  virtual bool Start(std::string* error) = 0;
  virtual int port() const = 0;
  virtual void Stop() = 0;
};

/// One `rescq serve` stack. Untraced it is the production
/// ResilienceServer; traced (a non-null sink) it is the same transport
/// and protocol assembled from their public parts — a LineServer whose
/// per-connection ProtocolHandler is wrapped in a TimedHandler.
class ServeStack : public Service {
 public:
  explicit ServeStack(SpanSink* sink);
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  bool Start(std::string* error) override;
  int port() const override;
  void Stop() override;

 private:
  rescq::ResilienceEngine engine_;
  rescq::ServerLimits limits_;
  std::unique_ptr<rescq::SessionRegistry> registry_;
  std::unique_ptr<rescq::LineServer> transport_;
  std::unique_ptr<rescq::ResilienceServer> server_;
};

/// Handler threads per server and client connections per workload:
/// with the load generator in the same process, this keeps the busy
/// threads at or below four cores.
inline constexpr int kServerThreads = 2;
inline constexpr int kConnections = 2;

/// One timed client operation: a pipelined burst or a single request.
/// first_seq..last_seq index the op's lines among its session's lines,
/// as the server's handler counts them (what joins it to the spans).
struct OpRecord {
  char kind = '?';  // 'b' burst, else LineKind of the request
  uint64_t first_seq = 0, last_seq = 0;
  Clock::time_point start, end;
  int reads = 0;
};

/// One session of a serving workload and what its client observed.
struct ServedSession {
  SessionInput input;
  std::string path;          // the base as a server-side tuple file
  uint64_t lines_sent = 0;   // this session's lines the server has seen
  std::vector<std::string> answers;  // `resilience` reply after each epoch
  std::vector<OpRecord> ops;         // timed ops only
  size_t warmup_epochs = 0;
};

/// A client connection and the sessions it drives in turn.
struct ClientConnection {
  PipeClient client;
  std::vector<ServedSession> sessions;
  uint64_t unavailable = 0;  // transport errors and err shard_unavailable
  bool broken = false;       // a transport error ended the connection
};

/// How a serving workload is shaped; RunServing does the rest.
struct ServingSpec {
  const char* prefix;  // session names are <prefix><connection>_<index>
  int vertices = 0;    // vc_er base of each session
  double density = 0;
  int forward_epochs = 0;     // churn epochs before the inverse half
  int updates_per_epoch = 0;
  int sessions_per_connection = 1;
  uint64_t seed_salt = 0;  // keeps workloads' inputs apart
  std::function<std::unique_ptr<Service>(SpanSink*)> make_service;
  /// One op round on the connection; timed rounds record their ops.
  std::function<void(ClientConnection*, bool timed, RunResult*)> round;
};

/// Everything a serving run leaves for its metrics.
struct ServingRun {
  std::vector<ClientConnection> connections =
      std::vector<ClientConnection>(kConnections);
  std::vector<Replay> replays;  // per session, connection by connection
  SpanSink sink;
  double setup_s = 0, generate_ms = 0, elapsed_s = 0, cpu_s = 0;
};

/// Sets up (once traced, else several times, reporting the median),
/// warms up, runs every connection's rounds until the deadline,
/// tears down, then replays every session and checks its answers.
/// False if set-up failed.
bool RunServing(const RunOptions& options, const ServingSpec& spec,
                ServingRun* run, RunResult* result);

/// `replays` holds one Replay per session, connection by connection.
void ServingLayerMetrics(const rescq::Query& q,
                         const std::vector<ClientConnection>& connections,
                         const std::vector<Replay>& replays,
                         RunResult* result);

/// The exact path's stages on (q, db), timed apart: QueryHolds (the
/// engine's first check), CollectWitnessFamily, SolveMinHittingSet.
struct ExactPathTiming {
  double holds_ms = 0;
  double collect_ms = 0;
  double search_ms = 0;
  size_t witnesses = 0;
  uint64_t nodes = 0;
};
ExactPathTiming TimeExactPath(const rescq::Query& q,
                              const rescq::Database& db);

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Load before the timed window. The first second after an idle spell
/// runs slower on a VM; a fixed warm-up keeps it out of every run.
inline constexpr double kWarmupSeconds = 1.0;

/// Runs `setup` `repeats` times, tearing down all but the last, and
/// returns the median set-up time in seconds.
template <typename SetupFn, typename TeardownFn>
double MedianSetup(int repeats, SetupFn setup, TeardownFn teardown) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(MsBetween(start, Clock::now()) / 1000.0);
    if (i + 1 < repeats) teardown();
  }
  return Median(seconds);
}

/// Per-layer probes that do not depend on a workload: the armed and
/// disarmed cost of one obs::Count call, in ns.
void MeasureObsCount(RunResult* result);

// The three workloads. Each runs untraced (end-to-end metrics) or
// traced (per-layer metrics) according to options.trace.
RunResult RunIngestBulk(const RunOptions& options);
RunResult RunRouteChurn(const RunOptions& options);
RunResult RunBatchSolve(const RunOptions& options);

}  // namespace perfbench

#endif  // RESCQ_PERFBENCH_BENCH_H_
