#ifndef RESCQ_RESILIENCE_ENGINE_H_
#define RESCQ_RESILIENCE_ENGINE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "resilience/exact_solver.h"
#include "resilience/plan.h"
#include "resilience/result.h"

namespace rescq {

/// Engine knobs. The defaults reproduce ComputeResilience exactly.
struct EngineOptions {
  /// Always run the exact solver on the original query (the reference
  /// oracle); planning is skipped entirely.
  bool force_exact = false;
  /// LRU capacity of the plan cache, in plans. 0 disables caching
  /// (every Solve re-runs the query analysis — the legacy behavior).
  size_t plan_cache_capacity = 256;
  /// Witness budget per exact component solve (0 = unlimited): the
  /// streaming enumerator stops after this many raw witnesses and the
  /// Solve reports a structured "witness budget exceeded" error instead
  /// of a silently truncated answer. PTIME constructions are unaffected.
  size_t witness_limit = 0;
  /// Branch-and-bound node budget per exact component solve (0 =
  /// unlimited). Exhausting it returns the incumbent — a verified
  /// contingency set that may not be minimum — with
  /// SolveOutcome::exact.node_budget_exceeded set.
  uint64_t exact_node_budget = 0;
  /// Workers for the exact solver's per-component fan-out (<= 1 =
  /// serial). Every Solve output — the resilience value, the reported
  /// contingency set, and the search counters in SolveOutcome::exact —
  /// is byte-identical across any thread count (un-budgeted; see
  /// ExactOptions::solver_threads for the node-budget exception). Each
  /// Solve spins its workers up and down on its own, so concurrent
  /// Solve calls on one engine stay independent.
  int solver_threads = 1;
};

/// Counters for the plan cache, monotone over the engine's lifetime.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;  // current size
};

/// Everything a Solve call produced beyond the bare result.
struct SolveOutcome {
  ResilienceResult result;
  /// The plan used (null when force_exact skipped planning).
  std::shared_ptr<const ResiliencePlan> plan;
  /// True when Solve(q, db) found the plan already cached.
  bool plan_cache_hit = false;
  double plan_ms = 0;   // query analysis time (0 on a cache hit)
  double solve_ms = 0;  // data-dependent solve time
  /// Aggregated exact-path counters for this Solve: witnesses streamed,
  /// distinct witness sets, hitting-set components, branch-and-bound
  /// nodes, and which bound pruned. All zero when no exact solver ran.
  ExactStats exact;
  /// Non-empty when a witness budget was exceeded; the result is then
  /// the default (resilience 0) and must not be used.
  std::string error;
};

/// Plan-once / solve-many resilience engine.
///
/// Plan(q) runs the pure query analysis (minimize, normalize, split,
/// classify, pick each component's solver) once and memoizes the
/// immutable plan on the canonical query text behind a mutex-guarded LRU.
/// Solve(q, db) reuses the cached plan and only pays for the
/// data-dependent work. Plans are shared_ptr<const> — hold one engine per
/// batch run and call it from any number of threads.
///
/// Concurrency contract: every public method is safe to call from any
/// number of threads on one engine instance. The only mutable state is
/// the plan cache — LRU splices, inserts, evictions, and the hit/miss
/// counters all happen under mu_, while plan *construction* happens
/// outside it (a racing duplicate build is benign; first insert wins).
/// All per-call state (SolveOutcome, ExactStats, timings) lives on the
/// caller's stack, so Solve calls never share accumulators. With
/// options.solver_threads > 1 each Solve additionally runs its own
/// private worker fan-out; concurrent Solves just nest independent
/// pools. tests/engine_test.cc stress-tests this under TSan.
class ResilienceEngine {
 public:
  explicit ResilienceEngine(EngineOptions options = {});

  /// The memoized plan for q (built on first use).
  std::shared_ptr<const ResiliencePlan> Plan(const Query& q);

  /// Plan (cached) and solve.
  SolveOutcome Solve(const Query& q, const Database& db);

  /// Solve with a plan obtained earlier from Plan() — the hot path for
  /// repeated solves of one query. Thread-safe and lock-free.
  SolveOutcome Solve(const std::shared_ptr<const ResiliencePlan>& plan,
                     const Database& db) const;

  PlanCacheStats plan_cache_stats() const;

  const EngineOptions& options() const { return options_; }

 private:
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const ResiliencePlan>>>;

  std::shared_ptr<const ResiliencePlan> PlanInternal(const Query& q,
                                                     bool* cache_hit);

  /// Runs the exact solver with the engine's budgets, labels the result
  /// with `kind`, and merges search stats (and any witness-budget error)
  /// into the outcome. The engine executes exact dispatches itself —
  /// the solver table's exact rows describe them for Explain, but only
  /// the engine can thread budgets and counters through.
  ResilienceResult RunExact(const Query& q, const Database& db,
                            SolverKind kind, SolveOutcome* out) const;

  EngineOptions options_;

  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  PlanCacheStats stats_;
};

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_ENGINE_H_
