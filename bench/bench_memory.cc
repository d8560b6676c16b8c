// E-memory: the eviction/rebuild cycle that keeps a serving session
// memory-bounded. The timing series measures one epoch with and
// without a preceding eviction (the lazy-rebuild toll). The arena's
// >= 2x bytes bar over the legacy representation is
// witness_property_test's, and the evicting session's agreement with a
// never-evicted twin and a from-scratch solve on these workloads is
// incremental_test's.

#include <benchmark/benchmark.h>

#include "cq/parser.h"
#include "resilience/incremental.h"
#include "workload/churn.h"
#include "workload/generators.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

struct WorkloadConfig {
  const char* scenario;
  int size;
  double density;
};

// The serving-shaped workloads: sparse ER vertex cover (many small
// components, the bench_incremental config) and a *dense* permutation
// instance — density 8 puts ~8 noise edges per node on top of the
// permutation, so q_perm's mutual-pair witnesses number in the dozens
// instead of the near-zero a sparse instance produces.
const WorkloadConfig kWorkloads[] = {
    {"vc_er", 1200, 0.00075},
    {"perm", 64, 8.0},
};

Query QueryOf(const WorkloadConfig& w) {
  return MustParseQuery(FindScenario(w.scenario)->query);
}

/// The workload's seed-1 instance.
Database Instance(const WorkloadConfig& w) {
  ScenarioParams params;
  params.size = w.size;
  params.density = w.density;
  params.seed = 1;
  return FindScenario(w.scenario)->generate(params);
}

/// `epochs` epochs of mixed churn (rate 0.05, seed 18) over `base`.
UpdateLog MixedChurn(const Database& base, int epochs) {
  ChurnParams churn;
  churn.epochs = epochs;
  churn.rate = 0.05;
  churn.seed = 18;
  return GenerateChurn(base, "mixed", churn);
}

// --- Timing series ----------------------------------------------------------

// One epoch with an eviction forced first: the apply pays the lazy
// index rebuild on top of the normal delta work.
void BM_EvictRebuildEpoch(benchmark::State& state) {
  const WorkloadConfig& w = kWorkloads[static_cast<size_t>(state.range(0))];
  const Database base = Instance(w);
  const UpdateLog log = MixedChurn(base, 256);
  IncrementalSession session(QueryOf(w), base, EngineOptions{});
  size_t next = 0;
  for (auto _ : state) {
    session.EvictColdState();
    benchmark::DoNotOptimize(session.Apply(log.epochs[next]).resilience);
    next = (next + 1) % log.epochs.size();
  }
}
BENCHMARK(BM_EvictRebuildEpoch)
    ->ArgsProduct({{0, 1}})
    ->Unit(benchmark::kMicrosecond);

// The resident baseline: same stream, index never dropped.
void BM_ResidentEpoch(benchmark::State& state) {
  const WorkloadConfig& w = kWorkloads[static_cast<size_t>(state.range(0))];
  const Database base = Instance(w);
  const UpdateLog log = MixedChurn(base, 256);
  IncrementalSession session(QueryOf(w), base, EngineOptions{});
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Apply(log.epochs[next]).resilience);
    next = (next + 1) % log.epochs.size();
  }
}
BENCHMARK(BM_ResidentEpoch)
    ->ArgsProduct({{0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rescq

BENCHMARK_MAIN();
