// E-obs: observability overhead. The artifact table answers one
// question: what do the metrics registry and the solve tracer cost when
// off (the default every solve pays) and when armed? Three probes: the
// raw helper (obs::Count in a tight loop), the component-parallel exact
// solve, and hub-churn incremental epochs — each timed dark
// (instrumentation off), with metrics on, and with metrics + tracing
// on. The contract (docs/OBSERVABILITY.md) is that the armed
// end-to-end paths stay within RESCQ_OBS_MAX_OVERHEAD of dark; with
// RESCQ_BENCH_OBS_ENFORCE=1 in the environment (the release-bench CI
// job) a violation fails the run.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "bench_util.h"
#include "cq/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/exact_solver.h"
#include "resilience/incremental.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

// The armed end-to-end paths must stay within this factor of the dark
// run. Generous against CI timer noise; the measured ratios on an idle
// host sit well under 1.1.
constexpr double kMaxOverheadRatio = 1.30;

// Enforced rows whose fully-armed ratio exceeded kMaxOverheadRatio.
int g_violations = 0;

// Runs `fn` dark / metrics / metrics+trace, prints the row, and counts
// an enforced row over the bound as a violation. Every probe leaves the
// process back in the dark default.
void Measure(const std::string& workload, bool enforced,
             const std::function<void()>& fn) {
  obs::SetMetricsEnabled(false);
  const double dark_ms = bench::BestMs(fn);  // instrumentation off

  obs::SetMetricsEnabled(true);
  obs::GlobalRegistry().Reset();
  const double metrics_ms = bench::BestMs(fn);  // metrics registry armed

  obs::StartTrace();
  const double full_ms = bench::BestMs(fn);  // metrics + tracing armed
  obs::StopTrace();
  obs::SetMetricsEnabled(false);

  const double metrics_ratio = dark_ms > 0 ? metrics_ms / dark_ms : 1.0;
  const double full_ratio = dark_ms > 0 ? full_ms / dark_ms : 1.0;
  std::printf("%-22s | %10.3f %10.3f %10.3f | %6.3fx %6.3fx%s\n",
              workload.c_str(), dark_ms, metrics_ms, full_ms, metrics_ratio,
              full_ratio, enforced ? "" : "  (informational)");
  if (enforced && full_ratio > kMaxOverheadRatio) {
    std::fprintf(stderr,
                 "bench_obs: %s armed overhead %.3fx exceeds the %.2fx "
                 "bound\n",
                 workload.c_str(), full_ratio, kMaxOverheadRatio);
    ++g_violations;
  }
}

// --- Probes -----------------------------------------------------------------

// Raw helper cost: 8M disabled Count() calls — the price every
// uninstrumented solve pays — versus the same loop armed. The armed
// loop is a worst case (nothing but atomic adds), so it is reported but
// not held to the end-to-end bound.
void ProbeRawHelpers() {
  constexpr int kCalls = 8'000'000;
  Measure("count-loop-8M", /*enforced=*/false, [&] {
    for (int i = 0; i < kCalls; ++i) obs::Count("bench.obs.raw");
  });
}

void ProbeExactSolve() {
  // Element-disjoint copies of the vc_er scenario family: the same
  // multi-component shape bench_parallel scales over.
  const HittingSetFamily family = bench::ScenarioFamily("vc_er", 20, 6);
  for (int threads : {1, 4}) {
    ExactOptions options;
    options.solver_threads = threads;
    Measure("exact-solve-t" + std::to_string(threads), /*enforced=*/true, [&] {
      ExactStats stats;
      benchmark::DoNotOptimize(SolveMinHittingSet(family, options, &stats));
    });
  }
}

void ProbeIncrementalEpochs() {
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
  Measure("hub-churn-epochs", /*enforced=*/true, [&] {
    IncrementalSession session(q, base, EngineOptions{});
    for (const Epoch& e : log.epochs) {
      benchmark::DoNotOptimize(session.Apply(e));
    }
  });
}

// --- Timing series ----------------------------------------------------------

void BM_CountDisabled(benchmark::State& state) {
  obs::SetMetricsEnabled(false);
  for (auto _ : state) obs::Count("bench.obs.bm");
}
BENCHMARK(BM_CountDisabled);

void BM_CountEnabled(benchmark::State& state) {
  obs::SetMetricsEnabled(true);
  for (auto _ : state) obs::Count("bench.obs.bm");
  obs::SetMetricsEnabled(false);
  obs::GlobalRegistry().Reset();
}
BENCHMARK(BM_CountEnabled);

void BM_SpanDisabled(benchmark::State& state) {
  for (auto _ : state) obs::Span span("bench", "obs");
}
BENCHMARK(BM_SpanDisabled);

}  // namespace
}  // namespace rescq

int main(int argc, char** argv) {
  rescq::bench::PrintHeader(
      "E-obs: observability overhead, dark vs metrics vs metrics+trace",
      "Each workload is timed with instrumentation off (dark), with the "
      "metrics registry armed, and with metrics + Chrome tracing armed. "
      "The armed end-to-end rows must stay within the printed bound of "
      "dark; the raw helper loop is a worst case reported for context.");
  std::printf("overhead bound: %.2fx (enforced with RESCQ_BENCH_OBS_ENFORCE=1)"
              "\n\n",
              rescq::kMaxOverheadRatio);
  std::printf("%-22s | %10s %10s %10s | %6s %6s\n", "workload", "dark_ms",
              "metrics_ms", "full_ms", "xmet", "xfull");
  rescq::ProbeRawHelpers();
  rescq::ProbeExactSolve();
  rescq::ProbeIncrementalEpochs();
  if (rescq::g_violations > 0 &&
      std::getenv("RESCQ_BENCH_OBS_ENFORCE") != nullptr) {
    return 1;
  }
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
