// E-obs: observability overhead. The table answers one question: what
// do the metrics registry and the solve tracer cost when off (the
// default every solve pays) and when armed? Three probes: the raw
// helper (obs::Count in a tight loop), the component-parallel exact
// solve, and hub-churn incremental epochs — each timed dark
// (instrumentation off), with metrics on, and with metrics + tracing
// on. The contract (docs/OBSERVABILITY.md) is that the armed
// end-to-end paths stay within kMaxOverheadRatio of dark; a violation
// exits 1.
//
// Method: a sample loops its probe for at least kMinSampleMs (the loop
// count is calibrated from one dark run), and the three modes are
// sampled interleaved over kRounds rounds, rotating which mode goes
// first. A row is judged on the median of its per-round full/dark
// ratios, so host drift and warm-up land on every mode alike.
//
// Usage: bench_obs (no flags). Run it from a Release build
// (`cmake --preset release`); an unoptimized build inflates the
// armed/dark gap.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "cq/parser.h"
#include "db/witness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/exact_solver.h"
#include "resilience/incremental.h"
#include "util/clock.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

// The armed end-to-end paths must stay within this factor of the dark
// run.
constexpr double kMaxOverheadRatio = 1.30;
// Shortest sample: long enough that timer resolution and one scheduler
// hiccup stay small against it.
constexpr double kMinSampleMs = 20.0;
// Odd, so the median is one round's ratio.
constexpr int kRounds = 15;

// Enforced rows whose median full/dark ratio exceeded kMaxOverheadRatio.
int g_violations = 0;
// Probe results land here so the optimizer cannot drop the work.
volatile long g_sink = 0;

enum Mode { kDark, kMetrics, kFull, kNumModes };

// Mean wall time of one `fn` call over `loops` calls, in `mode`. Every
// sample leaves the process back in the dark default. StartTrace clears
// the previous sample's events, so the buffer never outgrows a sample.
double SampleMs(Mode mode, int loops, const std::function<void()>& fn) {
  obs::SetMetricsEnabled(mode != kDark);
  if (mode == kFull) obs::StartTrace();
  const auto start = Clock::now();
  for (int i = 0; i < loops; ++i) fn();
  const double ms = MsSince(start) / loops;
  obs::StopTrace();
  obs::SetMetricsEnabled(false);
  return ms;
}

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

// Samples `fn` in all three modes for kRounds rotated rounds, prints
// the row, and counts an enforced row over the bound as a violation.
void Measure(const std::string& workload, bool enforced,
             const std::function<void()>& fn) {
  fn();  // warm-up: first-touch allocations, plan caches
  const double once_ms = SampleMs(kDark, 1, fn);
  const int loops = std::max(
      1, static_cast<int>(kMinSampleMs / std::max(once_ms, 1e-3)) + 1);

  std::vector<double> ms[kNumModes];
  std::vector<double> metrics_ratio;
  std::vector<double> full_ratio;
  for (int round = 0; round < kRounds; ++round) {
    double sample[kNumModes];
    for (int k = 0; k < kNumModes; ++k) {
      const Mode mode = static_cast<Mode>((round + k) % kNumModes);
      sample[mode] = SampleMs(mode, loops, fn);
      ms[mode].push_back(sample[mode]);
    }
    metrics_ratio.push_back(sample[kMetrics] / sample[kDark]);
    full_ratio.push_back(sample[kFull] / sample[kDark]);
  }

  const double full = Median(full_ratio);
  std::printf(
      "%-18s %6d | %9.4f %9.4f %9.4f | %6.3fx %6.3fx  [%.3f, %.3f]%s\n",
      workload.c_str(), loops, Median(ms[kDark]), Median(ms[kMetrics]),
      Median(ms[kFull]), Median(metrics_ratio), full,
      *std::min_element(full_ratio.begin(), full_ratio.end()),
      *std::max_element(full_ratio.begin(), full_ratio.end()),
      enforced ? "" : "  (informational)");
  if (enforced && full > kMaxOverheadRatio) {
    std::fprintf(stderr,
                 "bench_obs: %s armed overhead %.3fx exceeds the %.2fx "
                 "bound\n",
                 workload.c_str(), full, kMaxOverheadRatio);
    ++g_violations;
  }
}

// --- Probes -----------------------------------------------------------------

// Raw helper cost: 8M Count() calls — disabled, the price every
// uninstrumented solve pays — versus the same loop armed. The armed
// loop is a worst case (nothing but atomic adds), so it is reported but
// not held to the end-to-end bound.
void ProbeRawHelpers() {
  constexpr int kCalls = 8'000'000;
  Measure("count-loop-8M", /*enforced=*/false, [&] {
    for (int i = 0; i < kCalls; ++i) obs::Count("bench.obs.raw");
  });
}

// The witness family of `copies` instances of one scenario (copy c is
// generated with seed c + 1) as one dense-id hitting-set family. Each
// copy gets its own element range, so copies are independent
// components for the solver.
HittingSetFamily ScenarioFamily(const char* scenario_name, int size,
                                int copies) {
  const Scenario* scenario = FindScenario(scenario_name);
  Query q = MustParseQuery(scenario->query);
  HittingSetFamily out;
  std::vector<TupleId> tuples;
  int offset = 0;
  for (int c = 0; c < copies; ++c) {
    ScenarioParams params;
    params.size = size;
    params.seed = static_cast<uint64_t>(c) + 1;
    Database db = scenario->generate(params);
    const HittingSetFamily copy = HittingSetFamily::From(
        CollectWitnessFamily(q, db, kNoWitnessLimit), &tuples);
    const uint32_t base = static_cast<uint32_t>(out.pool.size());
    for (int e : copy.pool) out.pool.push_back(offset + e);
    for (SetSpan s : copy.sets) {
      out.sets.push_back(SetSpan{base + s.offset, s.len});
    }
    offset += static_cast<int>(tuples.size());
  }
  return out;
}

void ProbeExactSolve() {
  // Six element-disjoint copies of the vc_er scenario family: a
  // multi-component shape the solver can fan out over its workers.
  const HittingSetFamily family = ScenarioFamily("vc_er", 20, 6);
  for (int threads : {1, 4}) {
    ExactOptions options;
    options.solver_threads = threads;
    Measure("exact-solve-t" + std::to_string(threads), /*enforced=*/true, [&] {
      ExactStats stats;
      g_sink = SolveMinHittingSet(family, options, &stats).size;
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
    IncrementalSession session(q, base, ExactOptions{});
    for (const Epoch& e : log.epochs) g_sink = session.Apply(e).resilience;
  });
}

}  // namespace
}  // namespace rescq

int main() {
  std::printf(
      "\n==== E-obs: observability overhead, dark vs metrics vs "
      "metrics+trace ====\n"
      "Each workload is timed with instrumentation off (dark), with the "
      "metrics registry armed, and with metrics + Chrome tracing armed, "
      "interleaved over %d rounds. The armed end-to-end rows must stay "
      "within the bound of dark (median per-round ratio); the raw helper "
      "loop is a worst case reported for context.\n\n",
      rescq::kRounds);
  std::printf("overhead bound: %.2fx (median of %d rounds, samples >= %.0f "
              "ms)\n\n",
              rescq::kMaxOverheadRatio, rescq::kRounds, rescq::kMinSampleMs);
  std::printf("%-18s %6s | %9s %9s %9s | %6s %6s  %s\n", "workload", "loops",
              "dark_ms", "metrics_ms", "full_ms", "xmet", "xfull",
              "[xfull min, max]");
  rescq::ProbeRawHelpers();
  rescq::ProbeExactSolve();
  rescq::ProbeIncrementalEpochs();
  return rescq::g_violations > 0 ? 1 : 0;
}
