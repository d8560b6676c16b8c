// E-parallel: the component-parallel exact path. Timing only: a
// multi-component minimum-hitting-set solve and hub-churn incremental
// epochs at 1/2/4 workers (UseRealTime, so the series shows the
// speedup; it is only meaningful when the host has that many cores).
// Agreement across worker counts is parallel_test's (ComponentParallel.*,
// ParallelInvariance.*); pool utilization is perfbench's pool.busy_ratio.

#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"
#include "cq/parser.h"
#include "resilience/exact_solver.h"
#include "resilience/incremental.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

void BM_ParallelHittingSet(benchmark::State& state, const char* scenario) {
  const HittingSetFamily sets = bench::ScenarioFamily(
      scenario, scenario == std::string("perm") ? 14 : 20, /*copies=*/8);
  ExactOptions options;
  options.solver_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ExactStats stats;
    benchmark::DoNotOptimize(SolveMinHittingSet(sets, options, &stats));
  }
}

BENCHMARK_CAPTURE(BM_ParallelHittingSet, vc_er, "vc_er")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ParallelHittingSet, perm, "perm")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_HubChurnEpochs(benchmark::State& state) {
  const Scenario* scenario = FindScenario("triad");
  ScenarioParams params;
  params.size = 8;
  params.seed = 3;
  Database base = scenario->generate(params);
  Query q = MustParseQuery(scenario->query);
  ChurnParams churn;
  churn.epochs = 6;
  churn.rate = 0.25;
  churn.seed = 5;
  UpdateLog log = GenerateChurn(base, "hub", churn);
  EngineOptions options;
  options.solver_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    IncrementalSession session(q, base, options);
    for (const Epoch& e : log.epochs) {
      benchmark::DoNotOptimize(session.Apply(e));
    }
  }
}

BENCHMARK(BM_HubChurnEpochs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace rescq

BENCHMARK_MAIN();
