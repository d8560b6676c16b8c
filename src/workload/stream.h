#ifndef RESCQ_WORKLOAD_STREAM_H_
#define RESCQ_WORKLOAD_STREAM_H_

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <string>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "db/delta.h"
#include "resilience/exact_solver.h"
#include "resilience/incremental.h"

namespace rescq {

/// Knobs for one stream run, settable from `rescq stream` flags.
struct StreamOptions {
  /// Cross-check every epoch against ComputeResilienceExact from
  /// scratch over the session's database (the differential oracle).
  bool check_oracle = false;
  /// Budgets and workers for the session's per-epoch re-solve. Every
  /// report row is byte-identical for any `exact.solver_threads` — the
  /// incremental parallel path is fully deterministic.
  ExactOptions exact;
};

/// One report row: epoch 0 is the initial full build, later rows one
/// applied epoch each.
struct StreamRow {
  int epoch = 0;
  int inserted = 0;
  int deleted = 0;
  int tuples = 0;  // active tuples after the epoch
  size_t delta_witnesses = 0;
  size_t family_sets = 0;
  int lower_bound = 0;
  int upper_bound = 0;
  bool resolved = false;  // the exact search re-ran this epoch
  bool unbreakable = false;
  int resilience = 0;
  bool oracle_checked = false;
  bool oracle_match = true;
  int oracle_resilience = -1;
  bool budget_exceeded = false;
  std::string error;
  double wall_ms = 0;     // incremental time for this epoch
  double oracle_ms = 0;   // from-scratch time when the oracle ran
};

struct StreamReport {
  std::string query;  // display name
  std::string query_text;
  StreamOptions options;
  std::vector<StreamRow> rows;
  int mismatches = 0;       // oracle disagreements
  int resolves = 0;         // epochs that re-ran the exact search
  int budget_exceeded = 0;  // epochs stopped by a budget
  double total_wall_ms = 0;
  double total_oracle_ms = 0;
};

/// Runs the update log through an IncrementalSession epoch by epoch and
/// collects one row each (plus the epoch-0 build row).
StreamReport RunStream(const Query& q, const std::string& query_name,
                       const Database& base, const UpdateLog& log,
                       const StreamOptions& options);

/// CSV, one row per epoch plus a header. Column order is part of the
/// schema (docs/WORKLOADS.md): everything up to and including
/// `oracle_resilience` is deterministic for a given (query, base, log);
/// the timing columns come last.
void WriteStreamCsv(const StreamReport& report, std::ostream& out);

/// JSON document (`rescq-stream-report/v6` — v5 added
/// `options.solver_threads`, v6 a `metrics` block holding the global
/// registry's rescq-metrics/v1 snapshot fields, empty objects unless
/// metrics collection was on):
/// {"schema", "query", "options", "summary", "metrics",
/// "epochs": [...]}.
void WriteStreamJson(const StreamReport& report, std::ostream& out);

/// Human-readable per-epoch table + summary line, as printed by
/// `rescq stream`.
void PrintStreamTable(const StreamReport& report, std::FILE* out);

}  // namespace rescq

#endif  // RESCQ_WORKLOAD_STREAM_H_
