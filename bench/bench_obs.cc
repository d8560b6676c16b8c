// E-obs: observability overhead. The artifact table answers one
// question: what do the metrics registry and the solve tracer cost when
// off (the default every solve pays) and when armed? Three probes: the
// raw helper (obs::Count in a tight loop), the component-parallel exact
// solve, and hub-churn incremental epochs — each timed dark
// (instrumentation off), with metrics on, and with metrics + tracing
// on. The contract (docs/OBSERVABILITY.md) is that the armed
// end-to-end paths stay within RESCQ_OBS_MAX_OVERHEAD of dark; with
// RESCQ_BENCH_OBS_ENFORCE=1 in the environment (the release-bench CI
// job) a violation fails the run. Set RESCQ_BENCH_SNAPSHOT=<path> to
// write the machine-readable JSON (BENCH_observability.json in the repo
// root is a checked-in run).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

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

struct ObsRow {
  std::string workload;
  double dark_ms = 0;     // instrumentation off
  double metrics_ms = 0;  // metrics registry armed
  double full_ms = 0;     // metrics + tracing armed
  bool enforced = true;   // participates in the overhead bound

  double MetricsRatio() const {
    return dark_ms > 0 ? metrics_ms / dark_ms : 1.0;
  }
  double FullRatio() const { return dark_ms > 0 ? full_ms / dark_ms : 1.0; }
};

std::vector<ObsRow> g_rows;

// Runs `fn` dark / metrics / metrics+trace and appends the row. Every
// probe leaves the process back in the dark default.
void Measure(const std::string& workload, bool enforced,
             const std::function<void()>& fn) {
  ObsRow row;
  row.workload = workload;
  row.enforced = enforced;

  obs::SetMetricsEnabled(false);
  row.dark_ms = bench::BestMs(fn);

  obs::SetMetricsEnabled(true);
  obs::GlobalRegistry().Reset();
  row.metrics_ms = bench::BestMs(fn);

  obs::StartTrace();
  row.full_ms = bench::BestMs(fn);
  obs::StopTrace();
  obs::SetMetricsEnabled(false);

  g_rows.push_back(row);
  std::printf("%-22s | %10.3f %10.3f %10.3f | %6.3fx %6.3fx%s\n",
              row.workload.c_str(), row.dark_ms, row.metrics_ms, row.full_ms,
              row.MetricsRatio(), row.FullRatio(),
              row.enforced ? "" : "  (informational)");
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

// --- Snapshot + enforcement -------------------------------------------------

void WriteSnapshot() {
  std::FILE* f = bench::OpenSnapshot("rescq-bench-obs/v1");
  if (f == nullptr) return;
  std::fprintf(f, "  \"max_overhead_ratio\": %.2f,\n", kMaxOverheadRatio);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const ObsRow& r = g_rows[i];
    std::fprintf(f,
                 "    { \"workload\": \"%s\", \"dark_ms\": %.3f, "
                 "\"metrics_ms\": %.3f, \"full_ms\": %.3f, "
                 "\"metrics_ratio\": %.3f, \"full_ratio\": %.3f, "
                 "\"enforced\": %s }%s\n",
                 r.workload.c_str(), r.dark_ms, r.metrics_ms, r.full_ms,
                 r.MetricsRatio(), r.FullRatio(),
                 r.enforced ? "true" : "false",
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  bench::CloseSnapshot(f);
}

int CheckOverheadBound() {
  int violations = 0;
  for (const ObsRow& r : g_rows) {
    if (!r.enforced) continue;
    if (r.FullRatio() > kMaxOverheadRatio) {
      std::fprintf(stderr,
                   "bench_obs: %s armed overhead %.3fx exceeds the %.2fx "
                   "bound\n",
                   r.workload.c_str(), r.FullRatio(), kMaxOverheadRatio);
      ++violations;
    }
  }
  return violations;
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
  rescq::WriteSnapshot();
  int violations = rescq::CheckOverheadBound();
  if (violations > 0 && std::getenv("RESCQ_BENCH_OBS_ENFORCE") != nullptr) {
    return 1;
  }
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
