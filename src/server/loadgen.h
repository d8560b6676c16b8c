#ifndef RESCQ_SERVER_LOADGEN_H_
#define RESCQ_SERVER_LOADGEN_H_

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <string>

namespace rescq {

/// What `rescq loadgen` throws at a live server: M concurrent
/// connections, each opening its own session over a generated scenario
/// instance, then looping churn epochs and queries against it. Every
/// connection's base and update stream derive deterministically from
/// `seed` + its connection index.
struct LoadgenOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 4;
  /// Scenario family for the per-session base instance (workload/scenario).
  std::string scenario = "vc_er";
  /// Query override; empty = the scenario's default query.
  std::string query;
  int size = 8;
  double density = 0.5;
  /// Churn kind + per-connection stream shape (workload/churn).
  std::string churn = "mixed";
  int epochs = 4;
  double rate = 0.1;
  uint64_t seed = 1;
  /// After every epoch, mirror the session's database locally and
  /// compare the served answer against a from-scratch
  /// ComputeResilienceExact — the acceptance oracle.
  bool check_oracle = false;
  /// begin-time budgets forwarded to the server (0 = omit).
  uint64_t witness_limit = 0;
  uint64_t node_budget = 0;
  /// Session names are "<prefix>-<connection>".
  std::string session_prefix = "loadgen";
  /// Connect/receive deadline on every connection's LineClient (ms;
  /// 0 = no deadline). A dead or wedged server fails the run with a
  /// structured transport error instead of hanging it.
  int timeout_ms = 30000;
};

/// Latency summary over one request class, in milliseconds.
struct LatencyStats {
  uint64_t count = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double max_ms = 0;
};

/// What a loadgen run measured. `error` is non-empty when the run
/// aborted (connect failure, protocol violation) — the numbers then
/// cover only what completed.
struct LoadgenReport {
  LoadgenOptions options;
  uint64_t requests = 0;       // requests sent (each got a reply)
  uint64_t err_replies = 0;    // `err ...` replies (0 in a healthy run)
  uint64_t epochs_applied = 0;
  uint64_t oracle_checks = 0;
  uint64_t oracle_mismatches = 0;
  double wall_ms = 0;
  double requests_per_sec = 0;
  LatencyStats latency;        // every request
  LatencyStats epoch_latency;  // `epoch` requests only
  std::string error;
};

/// Runs the open → churn → query loop over `options.connections`
/// concurrent connections and aggregates the measurements.
LoadgenReport RunLoadgen(const LoadgenOptions& options);

/// Human-readable summary, as printed by `rescq loadgen`.
void PrintLoadgenTable(const LoadgenReport& report, std::FILE* out);

/// CSV: one header row + one row per latency class.
void WriteLoadgenCsv(const LoadgenReport& report, std::ostream& out);

/// JSON document (`rescq-loadgen-report/v1`):
/// {"schema", "options", "summary", "latency": {"all", "epoch"}}.
void WriteLoadgenJson(const LoadgenReport& report, std::ostream& out);

}  // namespace rescq

#endif  // RESCQ_SERVER_LOADGEN_H_
