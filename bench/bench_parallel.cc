// E-parallel: the component-parallel exact path. The artifact tables
// report (a) multi-component minimum-hitting-set solves at 1/2/4
// workers — wall time, speedup, and agreement with the serial solver,
// which the fuzz suite pins to the brute-force oracle — and (b)
// hub-churn incremental epoch latency versus worker count, where every
// epoch outcome must be byte-identical across thread counts. Speedups
// are only meaningful when the printed host core count >= workers.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cq/parser.h"
#include "obs/metrics.h"
#include "resilience/exact_solver.h"
#include "resilience/incremental.h"
#include "util/parallel.h"
#include "workload/churn.h"
#include "workload/generators.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

const int kThreadCounts[] = {1, 2, 4};

// --- Table (a): multi-component exact solve scaling -------------------------

void PrintSolveScaling() {
  bench::PrintHeader(
      "E-parallel: component-parallel exact solve, 1/2/4 workers",
      "Minimum hitting set over element-disjoint copies of scenario "
      "witness families (each copy is one independent component). The "
      "1-worker column is the serial solver — the oracle the fuzz suite "
      "pins to brute force; every parallel row must agree with it. "
      "Speedup is serial/parallel wall time and is bounded by the host "
      "core count printed below.");
  std::printf("host cores: %d\n\n", HardwareThreads());
  struct Case {
    const char* scenario;
    int size;
    int copies;
  };
  const Case cases[] = {
      {"vc_er", 20, 8},  {"vc_er", 24, 8},   {"perm", 14, 8},
      {"perm", 18, 8},   {"vc_grid", 49, 8}, {"triad", 7, 6},
  };
  std::printf("%-9s %5s %6s %6s %5s %5s | %10s %10s %10s | %7s %7s\n",
              "family", "size", "copies", "sets", "rho", "comp", "t1_ms",
              "t2_ms", "t4_ms", "x2", "x4");
  for (const Case& c : cases) {
    const HittingSetFamily sets =
        bench::ScenarioFamily(c.scenario, c.size, c.copies);
    double ms[3] = {0, 0, 0};  // indexed like kThreadCounts
    int rho = 0;
    int components = 0;
    bool agree = true;
    for (size_t t = 0; t < 3; ++t) {
      ExactOptions options;
      options.solver_threads = kThreadCounts[t];
      ExactStats stats;
      HittingSetResult result;
      ms[t] = bench::BestMs([&] {
        stats = ExactStats{};
        result = SolveMinHittingSet(sets, options, &stats);
      });
      if (t == 0) {
        rho = result.size;
        components = stats.components;
      } else {
        agree = agree && result.size == rho && result.proven_optimal;
      }
    }
    std::printf(
        "%-9s %5d %6d %6zu %5d %5d | %10.3f %10.3f %10.3f | %6.2fx %6.2fx%s\n",
        c.scenario, c.size, c.copies, sets.size(), rho, components, ms[0],
        ms[1], ms[2], ms[1] > 0 ? ms[0] / ms[1] : 0.0,
        ms[2] > 0 ? ms[0] / ms[2] : 0.0, agree ? "" : "  DISAGREE");
  }
}

// --- Table (b): hub-churn incremental epoch latency -------------------------

void PrintChurnScaling() {
  bench::PrintHeader(
      "E-parallel: incremental epoch latency vs solver workers, hub churn",
      "IncrementalSession over scenario instances under hub-skewed "
      "update streams: one constant's posting list keeps dissolving "
      "several components per epoch, so the epoch re-answers fan out to "
      "the worker pool. The incremental contract is full determinism — "
      "every epoch outcome (contingency included) must be byte-identical "
      "at any worker count; any drift is flagged on the row.");
  struct Case {
    const char* scenario;
    int size;
    int epochs;
  };
  const Case cases[] = {{"triad", 8, 6}, {"vc_er", 22, 6}, {"perm", 16, 6}};
  std::printf("%-9s %5s %7s | %12s %12s %12s | %7s %7s\n", "scenario", "size",
              "epochs", "t1_ep_ms", "t2_ep_ms", "t4_ep_ms", "x2", "x4");
  for (const Case& c : cases) {
    const Scenario* scenario = FindScenario(c.scenario);
    ScenarioParams params;
    params.size = c.size;
    params.seed = 3;
    Database base = scenario->generate(params);
    Query q = MustParseQuery(scenario->query);
    ChurnParams churn;
    churn.epochs = c.epochs;
    churn.rate = 0.25;
    churn.seed = 5;
    UpdateLog log = GenerateChurn(base, "hub", churn);

    double mean_epoch_ms[3] = {0, 0, 0};  // indexed like kThreadCounts
    bool agree = true;
    std::vector<int> serial_res;
    for (size_t t = 0; t < 3; ++t) {
      EngineOptions options;
      options.solver_threads = kThreadCounts[t];
      std::vector<int> res;
      mean_epoch_ms[t] = bench::BestMs([&] {
        res.clear();
        IncrementalSession session(q, base, options);
        for (const Epoch& e : log.epochs) {
          res.push_back(session.Apply(e).resilience);
        }
      }) / c.epochs;
      if (t == 0) {
        serial_res = res;
      } else {
        agree = agree && res == serial_res;
      }
    }
    std::printf("%-9s %5d %7d | %12.3f %12.3f %12.3f | %6.2fx %6.2fx%s\n",
                c.scenario, c.size, c.epochs, mean_epoch_ms[0],
                mean_epoch_ms[1], mean_epoch_ms[2],
                mean_epoch_ms[1] > 0 ? mean_epoch_ms[0] / mean_epoch_ms[1]
                                     : 0.0,
                mean_epoch_ms[2] > 0 ? mean_epoch_ms[0] / mean_epoch_ms[2]
                                     : 0.0,
                agree ? "" : "  DISAGREE");
  }
}

// --- Table (c): worker-pool utilization -------------------------------------

// Re-runs the largest solve case per thread count with the metrics
// registry armed: every WorkerPool publishes pool.* counters on
// destruction, so the registry delta around one solve shows how many
// tasks the pool drained and how much wall time its workers spent
// parked on the condition variables.
void PrintPoolUtilization() {
  bench::PrintHeader(
      "E-parallel: worker-pool utilization (pool.* metrics registry "
      "counters)",
      "tasks = component solves drained across the pool's lifetime, "
      "idle_ms = summed worker wait on the task / done condition "
      "variables (slot 0 is the Run caller). High idle at 4 workers on "
      "few components is expected: the pool parks whoever runs out of "
      "components.");
  const HittingSetFamily sets = bench::ScenarioFamily("vc_er", 24, 8);
  std::printf("%-9s %7s | %8s %8s %10s\n", "workers", "runs", "tasks",
              "workers", "idle_ms");
  obs::SetMetricsEnabled(true);
  for (int threads : kThreadCounts) {
    obs::GlobalRegistry().Reset();
    ExactOptions options;
    options.solver_threads = threads;
    ExactStats stats;
    HittingSetResult result = SolveMinHittingSet(sets, options, &stats);
    benchmark::DoNotOptimize(result);
    auto counter = [](const char* name) -> uint64_t {
      const obs::Counter* c = obs::GlobalRegistry().FindCounter(name);
      return c == nullptr ? 0 : c->Value();
    };
    std::printf("%-9d %7llu | %8llu %8llu %10.3f\n", threads,
                static_cast<unsigned long long>(counter("pool.runs")),
                static_cast<unsigned long long>(counter("pool.tasks_run")),
                static_cast<unsigned long long>(counter("pool.workers")),
                static_cast<double>(counter("pool.idle_ns")) / 1e6);
  }
  obs::SetMetricsEnabled(false);
  obs::GlobalRegistry().Reset();
}

// --- Timing series ----------------------------------------------------------

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

int main(int argc, char** argv) {
  rescq::PrintSolveScaling();
  rescq::PrintChurnScaling();
  rescq::PrintPoolUtilization();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
