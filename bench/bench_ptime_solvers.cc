// E7: the PTIME side of the dichotomy. Times the dispatcher's PTIME
// constructions (Props 12/13/31/33/36/41/44) against the exact oracle
// as the database grows — the flow solvers stay polynomial while the
// exact branch-and-bound blows up. solver_test holds their agreement
// (PTimeSolverAgreement, PTimeSolverAgreementAtScale).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "complexity/catalog.h"
#include "cq/parser.h"
#include "resilience/exact_solver.h"
#include "resilience/solver.h"

namespace rescq {
namespace {

void PrintScalingTable() {
  bench::PrintHeader(
      "E7b: who wins, by what factor",
      "Wall-clock (microseconds, single run) of the dispatcher's PTIME "
      "construction vs the exact solver as tuples grow. The shape to "
      "reproduce: flow stays flat-polynomial, exact explodes.");
  std::printf("%-14s %8s %14s %14s %10s\n", "family", "tuples",
              "ptime (us)", "exact (us)", "factor");
  using Clock = std::chrono::steady_clock;
  for (const char* name : {"q_ACconf", "q_Aperm", "q_A3perm_R"}) {
    Query q = MustParseQuery(FindCatalogEntry(name)->text);
    for (int tuples : {50, 200, 800, 3200}) {
      Rng rng(0xABC ^ static_cast<uint64_t>(tuples));
      Database db = bench::RandomDatabase(q, tuples / 4, tuples, rng);
      auto t0 = Clock::now();
      benchmark::DoNotOptimize(ComputeResilience(q, db));
      auto t1 = Clock::now();
      double fast_us =
          std::chrono::duration<double, std::micro>(t1 - t0).count();
      if (tuples > 200) {
        // The exact branch-and-bound is no longer affordable here; the
        // flow construction keeps scaling — that is the dichotomy's
        // practical payoff.
        std::printf("%-14s %8d %14.1f %14s %10s\n", name, tuples, fast_us,
                    "(skipped)", "-");
        continue;
      }
      benchmark::DoNotOptimize(ComputeResilienceExact(q, db));
      auto t2 = Clock::now();
      double exact_us =
          std::chrono::duration<double, std::micro>(t2 - t1).count();
      std::printf("%-14s %8d %14.1f %14.1f %9.1fx\n", name, tuples,
                  fast_us, exact_us, exact_us / fast_us);
    }
  }
}

void BM_PtimeSolver(benchmark::State& state, const char* name) {
  Query q = MustParseQuery(FindCatalogEntry(name)->text);
  int tuples = static_cast<int>(state.range(0));
  Rng rng(static_cast<uint64_t>(tuples) * 31 + 7);
  Database db = bench::RandomDatabase(q, std::max(3, tuples / 3), tuples, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeResilience(q, db));
  }
}
BENCHMARK_CAPTURE(BM_PtimeSolver, qACconf, "q_ACconf")
    ->Arg(30)->Arg(100)->Arg(300);
BENCHMARK_CAPTURE(BM_PtimeSolver, qAperm, "q_Aperm")
    ->Arg(30)->Arg(100)->Arg(300);
BENCHMARK_CAPTURE(BM_PtimeSolver, z3, "z3")->Arg(30)->Arg(100)->Arg(300);
BENCHMARK_CAPTURE(BM_PtimeSolver, qTS3conf, "q_TS3conf")
    ->Arg(30)->Arg(100);
BENCHMARK_CAPTURE(BM_PtimeSolver, qA3permR, "q_A3perm_R")
    ->Arg(30)->Arg(100)->Arg(300);

void BM_ExactOracle(benchmark::State& state, const char* name) {
  Query q = MustParseQuery(FindCatalogEntry(name)->text);
  int tuples = static_cast<int>(state.range(0));
  Rng rng(static_cast<uint64_t>(tuples) * 31 + 7);
  Database db = bench::RandomDatabase(q, std::max(3, tuples / 3), tuples, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeResilienceExact(q, db));
  }
}
BENCHMARK_CAPTURE(BM_ExactOracle, qACconf, "q_ACconf")->Arg(30)->Arg(100);
BENCHMARK_CAPTURE(BM_ExactOracle, qAperm, "q_Aperm")->Arg(30)->Arg(100);

}  // namespace
}  // namespace rescq

int main(int argc, char** argv) {
  rescq::PrintScalingTable();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
