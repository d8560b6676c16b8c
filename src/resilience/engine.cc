#include "resilience/engine.h"


#include "db/witness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/exact_solver.h"
#include "resilience/registry.h"
#include "util/check.h"
#include "util/clock.h"

namespace rescq {

namespace {

ExactOptions MakeExactOptions(const EngineOptions& options) {
  ExactOptions exact;
  exact.witness_limit =
      options.witness_limit == 0 ? kNoWitnessLimit : options.witness_limit;
  exact.node_budget = options.exact_node_budget;
  exact.solver_threads = options.solver_threads;
  return exact;
}

}  // namespace

ResilienceEngine::ResilienceEngine(EngineOptions options)
    : options_(options) {}

std::shared_ptr<const ResiliencePlan> ResilienceEngine::Plan(const Query& q) {
  bool cache_hit = false;
  return PlanInternal(q, &cache_hit);
}

std::shared_ptr<const ResiliencePlan> ResilienceEngine::PlanInternal(
    const Query& q, bool* cache_hit) {
  const std::string key = q.ToString();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      *cache_hit = true;
      lru_.splice(lru_.begin(), lru_, it->second);  // mark most recent
      obs::Count("engine.plan_cache_hits");
      return it->second->second;
    }
    ++stats_.misses;
    *cache_hit = false;
  }
  obs::Count("engine.plan_cache_misses");
  // Build outside the lock: planning can be expensive (isomorphism
  // probes) and concurrent workers planning distinct queries should not
  // serialize. A racing duplicate build is benign — the first insert
  // wins and the losing thread's build is discarded (both builds still
  // count as cache misses).
  std::shared_ptr<const ResiliencePlan> plan;
  {
    obs::Span span("plan", "engine");
    plan = std::make_shared<const ResiliencePlan>(BuildPlan(q));
  }
  if (options_.plan_cache_capacity == 0) return plan;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second->second;  // lost the race
  lru_.emplace_front(key, plan);
  index_[key] = lru_.begin();
  while (lru_.size() > options_.plan_cache_capacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = lru_.size();
  return plan;
}

ResilienceResult ResilienceEngine::RunExact(const Query& q, const Database& db,
                                            SolverKind kind,
                                            SolveOutcome* out) const {
  ResilienceResult result =
      ComputeResilienceExact(q, db, MakeExactOptions(options_), &out->exact);
  result.solver = kind;
  if (out->exact.witness_budget_exceeded && out->error.empty()) {
    out->error = "witness budget exceeded (witness_limit=" +
                 std::to_string(options_.witness_limit) +
                 "): the witness family is incomplete and no exact answer "
                 "can be given";
  }
  return result;
}

SolveOutcome ResilienceEngine::Solve(const Query& q, const Database& db) {
  if (options_.force_exact) {
    SolveOutcome out;
    Clock::time_point start = Clock::now();
    out.result = RunExact(q, db, SolverKind::kExact, &out);
    out.solve_ms = MsSince(start);
    return out;
  }
  Clock::time_point start = Clock::now();
  bool hit = false;
  std::shared_ptr<const ResiliencePlan> plan = PlanInternal(q, &hit);
  double plan_ms = MsSince(start);
  SolveOutcome out = Solve(plan, db);
  out.plan_cache_hit = hit;
  out.plan_ms = hit ? 0 : plan_ms;
  return out;
}

SolveOutcome ResilienceEngine::Solve(
    const std::shared_ptr<const ResiliencePlan>& plan,
    const Database& db) const {
  RESCQ_CHECK(plan != nullptr);
  obs::Span span("solve", "engine");
  obs::Count("engine.solves");
  SolveOutcome out;
  out.plan = plan;
  Clock::time_point start = Clock::now();

  if (options_.force_exact) {
    out.result = RunExact(plan->original, db, SolverKind::kExact, &out);
    out.solve_ms = MsSince(start);
    return out;
  }

  // Lemma 14: the query is false as soon as one component is false, so
  // rho(q, D) = min_i rho(q_i, D); a false component means rho = 0. A
  // construction needs no holds check: on a false component it finds no
  // witness and returns rho = 0 without `unbreakable`. Every component is
  // settled this way before any exact search starts.
  const size_t n = plan->components.size();
  std::vector<ResilienceResult> results(n);
  for (size_t i = 0; i < n; ++i) {
    const ComponentPlan& comp = plan->components[i];
    const SolverRow& row = SolverRowOf(comp.solver);
    if (comp.no_endogenous || row.run == nullptr) {
      if (QueryHolds(comp.query, db)) continue;
    } else {
      results[i] = row.run(comp.query, db);
      if (results[i].unbreakable || results[i].resilience > 0) continue;
    }
    out.solve_ms = MsSince(start);
    return out;  // default result: resilience 0
  }

  ResilienceResult best;
  best.unbreakable = true;
  for (size_t i = 0; i < n; ++i) {
    const ComponentPlan& comp = plan->components[i];
    if (comp.no_endogenous) continue;  // unbreakable whenever it holds
    if (SolverRowOf(comp.solver).run == nullptr) {
      // An exact row only describes its solver (Explain, self-checks);
      // the engine runs it: only the engine can thread the witness / node
      // budgets and collect search stats.
      results[i] = RunExact(comp.query, db, comp.solver, &out);
      if (!out.error.empty()) {
        out.solve_ms = MsSince(start);
        return out;  // witness budget exceeded: result must not be used
      }
    }
    const ResilienceResult& r = results[i];
    if (r.unbreakable) continue;
    if (best.unbreakable || r.resilience < best.resilience) best = r;
  }
  out.result = std::move(best);
  out.solve_ms = MsSince(start);
  obs::ObserveLatencyMs("engine.solve_ms", out.solve_ms);
  return out;
}

PlanCacheStats ResilienceEngine::plan_cache_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats stats = stats_;
  stats.entries = lru_.size();
  return stats;
}

}  // namespace rescq
