// E-incremental: IncrementalSession epochs against from-scratch
// ComputeResilienceExact recomputation, on the vc_er / perm workloads
// under the churn generators. The table reports, per (workload, churn
// rate), the steady-state per-epoch wall times of both paths and the
// speedup; the timing series then benchmarks the from-scratch path on
// fixed configurations (perfbench's incremental.apply_p50_ms times the
// incremental one). Agreement of the two paths is tier 1:
// fuzz_test's IncrementalSessionDifferentialSweep and incremental_test's
// EvictThenTouchMatchesANeverEvictedTwin.
//
// The acceptance bar this binary demonstrates: at <= 5% churn each of
// the vc_er and perm workloads has an update stream whose incremental
// epochs run >= 5x faster than from-scratch recompute (vc_er on the
// skewed hub stream, perm on the uniform mixed stream; at 1% churn
// every stream on both workloads clears 5x). Epoch 0 (the initial full
// build) is excluded — it *is* a from-scratch computation.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cq/parser.h"
#include "db/delta.h"
#include "resilience/exact_solver.h"
#include "resilience/incremental.h"
#include "workload/churn.h"
#include "workload/generators.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct WorkloadConfig {
  const char* name;
  const char* scenario;  // ScenarioCatalog entry
  int size;
  double density;
};

// Sparse ER (average degree ~0.9) is the serving-shaped instance: many
// small components, churn touches few of them, and the maintained
// component records answer the rest. The denser ER row (average degree
// ~2.5, the perfbench ingest_bulk base) has components large enough
// that most epochs re-solve a sizeable region.
const WorkloadConfig kWorkloads[] = {
    {"vc_er", "vc_er", 1200, 0.00075},
    {"vc_bulk", "vc_er", 500, 0.005},
    {"perm", "perm", 300, 0.5},
};

// The uniform coin-flip stream and the skewed stream that hammers the
// most frequent constant — the latter is the serving-shaped load
// (power-law traffic) where churn locality pays off most.
const char* kChurnKinds[] = {"mixed", "hub"};
const double kRates[] = {0.01, 0.05, 0.20};
constexpr int kEpochs = 24;

struct SweepResult {
  double inc_ms = 0;      // avg incremental epoch
  double scratch_ms = 0;  // avg from-scratch recompute
  int epochs = 0;
};

SweepResult RunSweep(const WorkloadConfig& w, const char* kind, double rate,
                     uint64_t seed) {
  const Scenario* scenario = FindScenario(w.scenario);
  ScenarioParams params;
  params.size = w.size;
  params.density = w.density;
  params.seed = seed;
  Database base = scenario->generate(params);
  Query q = MustParseQuery(scenario->query);

  ChurnParams churn;
  churn.epochs = kEpochs;
  churn.rate = rate;
  churn.seed = seed + 17;
  UpdateLog log = GenerateChurn(base, kind, churn);

  SweepResult result;
  IncrementalSession session(q, base, EngineOptions{});
  // The from-scratch competitor maintains its own database mirror: both
  // sides pay for applying the epoch's updates, and only the
  // maintain-vs-recompute difference is measured.
  Database mirror = base;
  for (const Epoch& epoch : log.epochs) {
    Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(session.Apply(epoch));
    result.inc_ms += MsSince(t0);

    Clock::time_point t1 = Clock::now();
    ApplyEpoch(epoch, &mirror);
    benchmark::DoNotOptimize(ComputeResilienceExact(q, mirror));
    result.scratch_ms += MsSince(t1);

    ++result.epochs;
  }
  result.inc_ms /= result.epochs;
  result.scratch_ms /= result.epochs;
  return result;
}

}  // namespace

void PrintArtifactTable() {
  bench::PrintHeader(
      "incremental epochs vs from-scratch recompute",
      "Per-epoch wall time of IncrementalSession::Apply against applying\n"
      "the same epoch to a mirror database and recomputing with\n"
      "ComputeResilienceExact (steady state, epoch 0 excluded — both\n"
      "sides pay for update application).");
  std::printf("%-8s %-6s %6s %7s %12s %12s %9s\n", "workload", "churn",
              "rate", "epochs", "inc ms/ep", "scratch ms", "speedup");
  for (const WorkloadConfig& w : kWorkloads) {
    for (const char* kind : kChurnKinds) {
      for (double rate : kRates) {
        SweepResult r = RunSweep(w, kind, rate, 1);
        std::printf("%-8s %-6s %5.0f%% %7d %12.3f %12.3f %8.1fx\n",
                    w.name, kind, rate * 100, r.epochs, r.inc_ms,
                    r.scratch_ms, r.inc_ms > 0 ? r.scratch_ms / r.inc_ms : 0.0);
      }
    }
  }
  std::printf("\n");
}

namespace {

// --- timing series ----------------------------------------------------------

// The from-scratch baseline on the same base instance (static database:
// the cost being measured is the full enumerate + solve pipeline).
void BM_FromScratchRecompute(benchmark::State& state) {
  const WorkloadConfig& w = kWorkloads[static_cast<size_t>(state.range(0))];
  const Scenario* scenario = FindScenario(w.scenario);
  ScenarioParams params;
  params.size = w.size;
  params.density = w.density;
  params.seed = 1;
  Database db = scenario->generate(params);
  Query q = MustParseQuery(scenario->query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeResilienceExact(q, db).resilience);
  }
}
BENCHMARK(BM_FromScratchRecompute)
    ->ArgsProduct({{0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rescq

int main(int argc, char** argv) {
  rescq::PrintArtifactTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
