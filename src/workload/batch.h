#ifndef RESCQ_WORKLOAD_BATCH_H_
#define RESCQ_WORKLOAD_BATCH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "db/database.h"
#include "resilience/exact_solver.h"
#include "resilience/result.h"
#include "workload/scenario.h"

namespace rescq {

/// One cell of the sweep matrix: solve `query_text` over the instance
/// `generate(params)` and record what happened.
struct BatchJob {
  std::string query_name;  // catalog or scenario name, for reports
  std::string query_text;  // parseable query body
  std::string scenario;    // scenario name ("uniform" for --names jobs)
  ScenarioParams params;
  std::function<Database(const ScenarioParams&)> generate;
};

/// The declarative sweep: (scenario × size × seed) for every named
/// scenario, plus an optional catalog-query dimension (`query_names`)
/// crossed with the generic uniform filler. Expansion order is
/// deterministic: scenarios first (size-major, then seeds), then
/// queries.
struct BatchPlan {
  std::vector<std::string> scenarios;
  std::vector<std::string> query_names;
  std::vector<int> sizes = {4, 6, 8};
  std::vector<uint64_t> seeds = {1};
  double density = 0.5;
};

/// Engine knobs, settable from flags or a plan file.
struct BatchOptions {
  int threads = 1;
  bool check_oracle = false;  // cross-check ComputeResilienceReference
  int oracle_cutoff = 80;     // skip the oracle above this many tuples
  bool memoize = true;        // reuse (query, db-fingerprint) results
  /// Budgets and workers for every exact component solve. Exceeding
  /// the witness budget marks the cell budget_exceeded instead of
  /// mis-reporting a value; an exhausted node budget returns the verified
  /// incumbent. `exact.solver_threads` works *inside* each exact solve,
  /// independent of `threads`, which fans out across cells; resilience
  /// values stay identical for any setting.
  ExactOptions exact;
};

/// Expands the plan into the job matrix. Returns false and fills *error
/// on an unknown scenario or catalog-query name.
bool ExpandPlan(const BatchPlan& plan, std::vector<BatchJob>* jobs,
                std::string* error);

/// Parses a `key = value` plan file (docs/WORKLOADS.md). Recognized
/// keys: scenarios, queries, sizes, seeds, density, threads,
/// check_oracle, oracle_cutoff, memoize, witness_limit,
/// exact_node_budget, solver_threads; '#' starts a comment. Unknown
/// keys and unparseable values are errors.
bool ParsePlanFile(const std::string& path, BatchPlan* plan,
                   BatchOptions* options, std::string* error);

// Comma-separated list parsers shared by plan files and the CLI's
// --sizes/--seeds flags. Both reject empty lists and bad items.
bool ParseIntList(const std::string& text, std::vector<int>* out);
bool ParseSeedList(const std::string& text, std::vector<uint64_t>* out);

/// Everything recorded about one executed cell.
struct BatchCell {
  // Identity (copied from the job).
  std::string query;
  std::string query_text;
  std::string scenario;
  int size = 0;
  double density = 0;
  uint64_t seed = 0;
  // Instance stats.
  int tuples = 0;
  int domain = 0;
  std::string fingerprint;
  // Results.
  bool unbreakable = false;
  int resilience = 0;
  SolverKind solver = SolverKind::kExact;
  bool verified = false;  // the contingency set falsified the query
  /// The engine's contingency set, in its own (sorted) order; empty
  /// when unbreakable or stopped by a witness budget.
  std::vector<TupleId> contingency;
  bool oracle_checked = false;
  bool oracle_match = true;
  int oracle_resilience = -1;
  bool memo_hit = false;
  /// True when the engine reused a cached ResiliencePlan for this cell
  /// (always false for memoized cells — they never reach the engine).
  bool plan_cache_hit = false;
  /// True when a budget stopped the solve; `error` says which. A
  /// witness budget leaves the resilience / verification / oracle
  /// fields meaningless; an exhausted node budget keeps a *verified*
  /// resilience that is only an upper bound (the oracle check is
  /// skipped). Either way the cell is counted separately from
  /// mismatches — an exceeded budget the user asked for is not a
  /// solver bug.
  bool budget_exceeded = false;
  std::string error;
  double wall_ms = 0;
};

struct BatchReport {
  std::vector<BatchCell> cells;  // in job order, regardless of threads
  BatchOptions options;
  int mismatches = 0;  // oracle disagreements + unverified contingencies
  int memo_hits = 0;
  int budget_exceeded = 0;  // cells stopped by a witness budget
  // Final counters of the run's shared ResilienceEngine plan cache:
  // each distinct query is planned once and the plan is reused
  // read-only across all worker threads.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  size_t plan_cache_entries = 0;
  double total_wall_ms = 0;  // sum of per-cell solver time
  double elapsed_ms = 0;     // end-to-end wall clock
};

/// Fans the jobs out across a fixed pool of options.threads workers.
/// Each worker generates its own private database per cell (generation
/// is deterministic in the params), so results — in particular every
/// resilience value — are identical for any thread count; only timings
/// and memo-hit attribution may vary.
BatchReport RunBatch(const std::vector<BatchJob>& jobs,
                     const BatchOptions& options);

/// Structural hash (FNV-1a over relation names, arities, and the value
/// names of active rows, in storage order) used as the memo key
/// together with the query text. Stable across a WriteTuples/ReadTuples
/// round trip.
std::string DatabaseFingerprint(const Database& db);

}  // namespace rescq

#endif  // RESCQ_WORKLOAD_BATCH_H_
