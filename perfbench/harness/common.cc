#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "bench.h"
#include "db/tuple_io.h"
#include "obs/metrics.h"
#include "resilience/exact_solver.h"
#include "util/string_util.h"
#include "workload/churn.h"
#include "workload/generators.h"

namespace perfbench {

using rescq::Database;
using rescq::Epoch;
using rescq::EpochOutcome;
using rescq::Query;
using rescq::Update;
using rescq::UpdateKind;

void RunResult::Fail(const std::string& why) {
  // Client threads of one run report into the same result.
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  ++failed;
  // Keep the report readable when a run goes badly wrong.
  if (failed <= 5) Note("FAILED: " + why);
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank > 0) --rank;
  return values[std::min(rank, n - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double ProcessCpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so a
  // harness started from a larger parent would report the parent's peak.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

SessionInput MakeSessionInput(const std::string& name, int size,
                              double density, int forward, int updates,
                              uint64_t seed) {
  SessionInput input;
  input.name = name;
  rescq::ScenarioParams params;
  params.size = size;
  params.density = density;
  params.seed = seed;
  input.base = rescq::GenerateErdosRenyiVC(params);

  rescq::ChurnParams churn;
  churn.epochs = forward;
  // A rate against this base's own size, so that epochs are the same
  // size whatever the seed drew: per-update handling cost grows with it.
  churn.rate = static_cast<double>(updates) /
               std::max(1, input.base.NumActiveTuples());
  churn.seed = seed * 7919 + 17;
  input.log = rescq::GenerateChurn(input.base, "mixed", churn);
  // The generator only deletes live facts and only inserts absent ones,
  // so every update flips a tuple and the reversed, inverted sequence
  // undoes the forward epochs exactly.
  for (int e = forward - 1; e >= 0; --e) {
    Epoch inverse;
    const std::vector<Update>& updates = input.log.epochs[e].updates;
    for (auto it = updates.rbegin(); it != updates.rend(); ++it) {
      Update u = *it;
      u.kind = u.kind == UpdateKind::kInsert ? UpdateKind::kDelete
                                             : UpdateKind::kInsert;
      inverse.updates.push_back(std::move(u));
    }
    input.log.epochs.push_back(std::move(inverse));
  }
  return input;
}

std::string UpdateLine(const Update& u) {
  std::string line = u.kind == UpdateKind::kInsert ? "+ " : "- ";
  line += u.relation + "(" + rescq::Join(u.constants, ",") + ")";
  return line;
}

std::string ResilienceReply(const EpochOutcome& o) {
  if (o.unbreakable) return "ok resilience unbreakable";
  if (o.lower_bound < o.upper_bound) {
    return rescq::StrFormat("ok resilience %d unproven", o.resilience);
  }
  return rescq::StrFormat("ok resilience %d", o.resilience);
}

Replay ReplayCycle(const Query& q, const SessionInput& input) {
  Replay replay;
  Clock::time_point start = Clock::now();
  rescq::IncrementalSession session(q, input.base);
  replay.begin_ms = MsBetween(start, Clock::now());
  for (const Epoch& epoch : input.log.epochs) {
    Clock::time_point t0 = Clock::now();
    EpochOutcome outcome = session.Apply(epoch);
    replay.apply_ms.push_back(MsBetween(t0, Clock::now()));
    replay.answers.push_back(ResilienceReply(outcome));
    replay.delta_witnesses.push_back(outcome.delta_witnesses);
    replay.resolved.push_back(outcome.resolved);
  }
  replay.bytes_per_set = session.ApproxMemory().BytesPerWitness();
  return replay;
}

void CheckServedAnswers(const Query& q, const SessionInput& input,
                        const Replay& replay,
                        const std::vector<std::string>& served,
                        RunResult* result) {
  size_t period = input.log.epochs.size();
  for (size_t k = 0; k < served.size(); ++k) {
    if (served[k] != replay.answers[k % period]) {
      ++result->mismatches;
      result->Fail(input.name + " epoch " + std::to_string(k) + ": served '" +
                   served[k] + "', replay '" + replay.answers[k % period] +
                   "'");
    }
  }
  if (served.empty()) return;
  // The oracle: a full exact solve of the final state.
  Database mirror = input.base;
  for (size_t e = 0; e < served.size() % period; ++e) {
    rescq::ApplyEpoch(input.log.epochs[e], &mirror);
  }
  rescq::ResilienceResult oracle = rescq::ComputeResilienceExact(q, mirror);
  std::string expect =
      oracle.unbreakable
          ? "ok resilience unbreakable"
          : rescq::StrFormat("ok resilience %d", oracle.resilience);
  if (served.back() != expect) {
    ++result->mismatches;
    result->Fail(input.name + " final answer '" + served.back() +
                 "' disagrees with the exact oracle '" + expect + "'");
  }
}

std::string WriteBase(const std::string& dir, const std::string& stem,
                      const Database& db) {
  std::string path = dir + "/" + stem + "-" + std::to_string(::getpid()) +
                     ".tuples";
  std::string error;
  if (!rescq::SaveTupleFile(db, path, "perfbench base", &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    std::exit(1);
  }
  return path;
}

// --- PipeClient -----------------------------------------------------------

PipeClient::~PipeClient() { Close(); }

void PipeClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool PipeClient::Connect(int port, std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

bool PipeClient::Send(const std::string& data, std::string* error) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool PipeClient::ReadReplies(size_t count, std::vector<std::string>* lines,
                             int* reads, std::string* error) {
  lines->clear();
  *reads = 0;
  char chunk[65536];
  size_t scanned = 0;
  while (lines->size() < count) {
    size_t newline = buffer_.find('\n', scanned);
    if (newline != std::string::npos) {
      lines->push_back(buffer_.substr(scanned, newline - scanned));
      scanned = newline + 1;
      continue;
    }
    buffer_.erase(0, scanned);
    scanned = 0;
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, timeout_ms_);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      *error = "timeout: no reply within " + std::to_string(timeout_ms_) +
               " ms";
      return false;
    }
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = n == 0 ? "server closed the connection"
                      : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    ++*reads;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  buffer_.erase(0, scanned);
  return true;
}

bool PipeClient::Request(const std::string& line, std::string* reply,
                         std::string* error) {
  std::vector<std::string> lines;
  int reads = 0;
  if (!Send(line + "\n", error) || !ReadReplies(1, &lines, &reads, error)) {
    return false;
  }
  *reply = lines[0];
  return true;
}

// --- Spans ----------------------------------------------------------------

void SpanSink::Add(std::vector<HandleSpan> spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

std::vector<HandleSpan> SpanSink::Session(const std::string& session) const {
  std::vector<HandleSpan> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const HandleSpan& span : spans_) {
      if (span.session == session) out.push_back(span);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HandleSpan& a, const HandleSpan& b) {
              return a.seq < b.seq;
            });
  return out;
}

char LineKind(std::string_view line) {
  if (!line.empty() && (line[0] == '+' || line[0] == '-')) return 'u';
  if (line == "epoch") return 'e';
  if (line == "resilience" || line == "stats") return 'r';
  return 's';
}

TimedHandler::TimedHandler(
    std::unique_ptr<rescq::LineConnectionHandler> inner, SpanSink* sink)
    : inner_(std::move(inner)), sink_(sink) {}

TimedHandler::~TimedHandler() { sink_->Add(std::move(spans_)); }

rescq::LineResult TimedHandler::Handle(std::string_view line) {
  if (rescq::StartsWith(line, "open ") || rescq::StartsWith(line, "use ")) {
    std::vector<std::string> tokens = rescq::SplitTrimmed(line, ' ');
    if (tokens.size() >= 2) session_ = tokens[1];
  }
  HandleSpan span;
  span.start = Clock::now();
  rescq::LineResult result = inner_->Handle(line);
  span.end = Clock::now();
  span.session = session_;
  span.seq = lines_[session_]++;
  span.kind = LineKind(line);
  spans_.push_back(std::move(span));
  return result;
}

// --- Probes ---------------------------------------------------------------

void MeasureObsCount(RunResult* result) {
  constexpr int kCalls = 1 << 20;
  bool was_enabled = rescq::obs::MetricsEnabled();
  auto loop_ns = [&](bool armed) {
    rescq::obs::SetMetricsEnabled(armed);
    std::vector<double> per_call;
    for (int rep = 0; rep < 5; ++rep) {
      Clock::time_point start = Clock::now();
      for (int i = 0; i < kCalls; ++i) rescq::obs::Count("perfbench.probe");
      per_call.push_back(UsBetween(start, Clock::now()) * 1000.0 / kCalls);
    }
    return Median(per_call);
  };
  result->Set("obs.count_ns_armed", loop_ns(true), "ns");
  result->Set("obs.count_ns_dark", loop_ns(false), "ns");
  rescq::obs::SetMetricsEnabled(was_enabled);
}

}  // namespace perfbench
