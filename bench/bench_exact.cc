// E-exact: the exact path (streaming witnesses, connected components,
// max-flow lower bound) on the hitting-set families the vc_er / vc_grid
// workload scenarios produce. Timing only: exact_solver_test holds these
// families' set counts and optima to frozen values.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "cq/parser.h"
#include "resilience/exact_solver.h"
#include "workload/generators.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

void BM_ComponentFlowHittingSet(benchmark::State& state,
                                const char* scenario) {
  const HittingSetFamily family =
      bench::ScenarioFamily(scenario, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMinHittingSet(family));
  }
}

// vc_er 32 and 40 run past kFlowBoundMinNodes, so the flow bound fires
// and the cover search backtracks through its undo trail.
BENCHMARK_CAPTURE(BM_ComponentFlowHittingSet, vc_er, "vc_er")
    ->Arg(16)
    ->Arg(20)
    ->Arg(24)
    ->Arg(32)
    ->Arg(40)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ComponentFlowHittingSet, vc_grid, "vc_grid")
    ->Arg(25)
    ->Arg(49)
    ->Arg(81)
    ->Unit(benchmark::kMicrosecond);

// End to end: streaming witness collection + the new solver, the path
// `rescq batch` pays for every exact cell.
void BM_ExactResilienceEndToEnd(benchmark::State& state,
                                const char* scenario_name) {
  const Scenario* scenario = FindScenario(scenario_name);
  ScenarioParams params;
  params.size = static_cast<int>(state.range(0));
  params.seed = 1;
  Database db = scenario->generate(params);
  Query q = MustParseQuery(scenario->query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeResilienceExact(q, db));
  }
}

BENCHMARK_CAPTURE(BM_ExactResilienceEndToEnd, vc_er, "vc_er")
    ->Arg(16)
    ->Arg(20)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ExactResilienceEndToEnd, vc_grid, "vc_grid")
    ->Arg(49)
    ->Arg(81)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rescq

BENCHMARK_MAIN();
