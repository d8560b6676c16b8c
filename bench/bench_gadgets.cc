// E5/E6: the hardness gadgets — VC -> q_vc (Proposition 9), VC -> q_chain
// (the Figure 8 or-property paths) and 3SAT -> q_chain (Proposition 10 /
// Figure 10). Timing only: gadget construction and exact solving vs
// instance size. reductions_test holds each gadget's identity
// (rho = VC, rho = VC + |E|, satisfiable iff rho = k).

#include <benchmark/benchmark.h>

#include "reductions/cnf.h"
#include "reductions/gadget_sat_qchain.h"
#include "reductions/gadget_vc_qvc.h"
#include "reductions/graph.h"
#include "resilience/exact_solver.h"
#include "util/rng.h"

namespace rescq {
namespace {

void BM_BuildSatGadget(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  Rng rng(1);
  CnfFormula f = RandomCnf(4, m, 3, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSatQchainGadget(f));
  }
}
BENCHMARK(BM_BuildSatGadget)->Arg(4)->Arg(16)->Arg(64);

void BM_ExactSolveSatGadget(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  Rng rng(1);
  CnfFormula f = RandomCnf(4, m, 3, rng);
  SatChainGadget gadget = BuildSatQchainGadget(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeResilienceExact(gadget.query, gadget.db));
  }
}
BENCHMARK(BM_ExactSolveSatGadget)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ExactSolveVcGadget(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(n);
  Graph g = RandomGraph(n, 1, 2, rng);
  VcQvcGadget gadget = BuildVcQvcGadget(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeResilienceExact(gadget.query, gadget.db));
  }
}
BENCHMARK(BM_ExactSolveVcGadget)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rescq

BENCHMARK_MAIN();
