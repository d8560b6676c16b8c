// E-exact: the exact path (streaming witnesses, connected components,
// max-flow lower bound) on the hitting-set families the vc_er / vc_grid
// workload scenarios produce. The artifact table reports per-size wall
// times and search counters, and checks every case's set count and
// optimum against the frozen optima below; the timing series then
// benchmarks the solver on fixed instances.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "cq/parser.h"
#include "resilience/exact_solver.h"
#include "workload/generators.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

// The reference the DISAGREE check compares against: witness-set count
// and minimum hitting set of each case's family (seed 1). Frozen from
// the release where the pre-overhaul branch-and-bound and the current
// solver agreed on every row. Each vc_grid optimum is floor(n/2), the
// grid's vertex cover number.
struct FrozenOptimum {
  const char* scenario;
  int size;
  size_t sets;
  int rho;
};

constexpr FrozenOptimum kFrozenOptima[] = {
    {"vc_er", 16, 57, 10},    {"vc_er", 20, 93, 14},
    {"vc_er", 24, 131, 18},   {"vc_er", 26, 148, 20},
    {"vc_grid", 25, 40, 12},  {"vc_grid", 49, 84, 24},
    {"vc_grid", 64, 112, 32}, {"vc_grid", 81, 144, 40},
};

void PrintComparison() {
  bench::PrintHeader(
      "E-exact: component-split + flow-bound exact solver vs frozen optima",
      "Minimum hitting set over the witness families of the vc_er and "
      "vc_grid scenarios (q_vc; Proposition 9 territory). The solver "
      "splits connected components and adds the fractional-matching "
      "max-flow bound. Each row's sets and rho are compared with the "
      "checked-in optimum; any difference prints DISAGREE.");
  std::printf("%-9s %5s %6s %6s | %12s %10s\n", "scenario", "size", "sets",
              "rho", "new_ms", "new_nodes");
  for (const FrozenOptimum& c : kFrozenOptima) {
    const HittingSetFamily family = bench::ScenarioFamily(c.scenario, c.size);
    HittingSetResult result;
    ExactStats stats;
    double ms = bench::BestMs(
        [&] {
          stats = ExactStats{};
          result = SolveMinHittingSet(family, ExactOptions{}, &stats);
        },
        100.0, 8);
    const bool agree = family.size() == c.sets && result.size == c.rho;
    std::printf("%-9s %5d %6zu %6d | %12.3f %10llu%s\n", c.scenario, c.size,
                family.size(), result.size, ms,
                static_cast<unsigned long long>(stats.nodes),
                agree ? "" : "  DISAGREE");
  }
}

void BM_ComponentFlowHittingSet(benchmark::State& state,
                                const char* scenario) {
  const HittingSetFamily family =
      bench::ScenarioFamily(scenario, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMinHittingSet(family));
  }
}

BENCHMARK_CAPTURE(BM_ComponentFlowHittingSet, vc_er, "vc_er")
    ->Arg(16)
    ->Arg(20)
    ->Arg(24)
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

int main(int argc, char** argv) {
  rescq::PrintComparison();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
