// E-parallel: the component-parallel exact path. The artifact tables
// report (a) multi-component minimum-hitting-set solves at 1/2/4
// workers — wall time, speedup, and agreement with the serial solver,
// which the fuzz suite pins to the brute-force oracle — and (b)
// hub-churn incremental epoch latency versus worker count, where every
// epoch outcome must be byte-identical across thread counts. Set
// RESCQ_BENCH_SNAPSHOT=<path> to also write the machine-readable JSON
// snapshot (BENCH_parallel.json in the repo root is a checked-in run;
// its host.cores field says how many cores the numbers were taken on —
// speedups are only meaningful when cores >= workers).

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

// --- Snapshot rows ----------------------------------------------------------

struct SolveRow {
  std::string family;
  int copies = 0;
  int size = 0;
  size_t sets = 0;
  int rho = 0;
  int components = 0;
  double ms[3] = {0, 0, 0};  // indexed like kThreadCounts
  bool agree = true;
};

struct ChurnRow {
  std::string scenario;
  std::string kind;
  int epochs = 0;
  double mean_epoch_ms[3] = {0, 0, 0};
  bool agree = true;
};

std::vector<SolveRow> g_solve_rows;
std::vector<ChurnRow> g_churn_rows;

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
    SolveRow row;
    row.family = c.scenario;
    row.copies = c.copies;
    row.size = c.size;
    row.sets = sets.size();
    int serial_size = 0;
    for (size_t t = 0; t < 3; ++t) {
      ExactOptions options;
      options.solver_threads = kThreadCounts[t];
      ExactStats stats;
      HittingSetResult result;
      row.ms[t] = bench::BestMs([&] {
        stats = ExactStats{};
        result = SolveMinHittingSet(sets, options, &stats);
      });
      if (t == 0) {
        serial_size = result.size;
        row.rho = result.size;
        row.components = stats.components;
      } else {
        row.agree = row.agree && result.size == serial_size &&
                    result.proven_optimal;
      }
    }
    g_solve_rows.push_back(row);
    std::printf(
        "%-9s %5d %6d %6zu %5d %5d | %10.3f %10.3f %10.3f | %6.2fx %6.2fx%s\n",
        row.family.c_str(), row.size, row.copies, row.sets, row.rho,
        row.components, row.ms[0], row.ms[1], row.ms[2],
        row.ms[1] > 0 ? row.ms[0] / row.ms[1] : 0.0,
        row.ms[2] > 0 ? row.ms[0] / row.ms[2] : 0.0,
        row.agree ? "" : "  DISAGREE");
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

    ChurnRow row;
    row.scenario = c.scenario;
    row.kind = "hub";
    row.epochs = c.epochs;
    std::vector<int> serial_res;
    for (size_t t = 0; t < 3; ++t) {
      EngineOptions options;
      options.solver_threads = kThreadCounts[t];
      std::vector<int> res;
      row.mean_epoch_ms[t] = bench::BestMs([&] {
        res.clear();
        IncrementalSession session(q, base, options);
        for (const Epoch& e : log.epochs) {
          res.push_back(session.Apply(e).resilience);
        }
      }) / c.epochs;
      if (t == 0) {
        serial_res = res;
      } else {
        row.agree = row.agree && res == serial_res;
      }
    }
    g_churn_rows.push_back(row);
    std::printf("%-9s %5d %7d | %12.3f %12.3f %12.3f | %6.2fx %6.2fx%s\n",
                row.scenario.c_str(), c.size, c.epochs, row.mean_epoch_ms[0],
                row.mean_epoch_ms[1], row.mean_epoch_ms[2],
                row.mean_epoch_ms[1] > 0
                    ? row.mean_epoch_ms[0] / row.mean_epoch_ms[1]
                    : 0.0,
                row.mean_epoch_ms[2] > 0
                    ? row.mean_epoch_ms[0] / row.mean_epoch_ms[2]
                    : 0.0,
                row.agree ? "" : "  DISAGREE");
  }
}

// --- Table (c): worker-pool utilization -------------------------------------

// Re-runs the largest solve case per thread count with the metrics
// registry armed: every WorkerPool publishes pool.* counters on
// destruction, so the registry delta around one solve shows how many
// tasks the pool drained and how much wall time its workers spent
// parked on the condition variables. Table-only — the snapshot schema
// (rescq-bench-parallel/v1) is unchanged.
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

// --- Machine-readable snapshot ----------------------------------------------

void WriteSnapshot() {
  std::FILE* f = bench::OpenSnapshot("rescq-bench-parallel/v1");
  if (f == nullptr) return;
  std::fprintf(f, "  \"thread_counts\": [1, 2, 4],\n");
  std::fprintf(f, "  \"solve\": [\n");
  for (size_t i = 0; i < g_solve_rows.size(); ++i) {
    const SolveRow& r = g_solve_rows[i];
    std::fprintf(f,
                 "    { \"family\": \"%s\", \"size\": %d, \"copies\": %d, "
                 "\"sets\": %zu, \"rho\": %d, \"components\": %d, "
                 "\"ms\": [%.3f, %.3f, %.3f], \"agree\": %s }%s\n",
                 r.family.c_str(), r.size, r.copies, r.sets, r.rho,
                 r.components, r.ms[0], r.ms[1], r.ms[2],
                 r.agree ? "true" : "false",
                 i + 1 < g_solve_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"churn\": [\n");
  for (size_t i = 0; i < g_churn_rows.size(); ++i) {
    const ChurnRow& r = g_churn_rows[i];
    std::fprintf(f,
                 "    { \"scenario\": \"%s\", \"kind\": \"%s\", "
                 "\"epochs\": %d, \"mean_epoch_ms\": [%.3f, %.3f, %.3f], "
                 "\"agree\": %s }%s\n",
                 r.scenario.c_str(), r.kind.c_str(), r.epochs,
                 r.mean_epoch_ms[0], r.mean_epoch_ms[1], r.mean_epoch_ms[2],
                 r.agree ? "true" : "false",
                 i + 1 < g_churn_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  bench::CloseSnapshot(f);
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
  rescq::WriteSnapshot();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
