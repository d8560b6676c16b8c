// E-memory: the arena-backed witness storage against the pre-refactor
// vector-of-vectors representation, and the eviction/rebuild cycle that
// keeps a serving session memory-bounded. Two artifact tables:
//
//  (a) representation — for the vc_er and perm workloads, the bytes the
//      legacy representation held (per-set vectors plus the
//      content-hash dedup index that owned a second copy of every set,
//      rebuilt honestly here and measured with the same memstats
//      geometry helpers) against WitnessFamily::ApproxBytes() of the
//      span arena. The acceptance bar is a >= 2x bytes/witness
//      reduction on both workloads; a row under the bar prints REGRESS
//      and fails the CI bench job.
//
//  (b) eviction — an IncrementalSession under churn with
//      EvictColdState() forced every few epochs, against a never-
//      evicted twin: every epoch's answer must agree with the twin and
//      with a from-scratch exact recompute (a DISAGREE row fails CI),
//      and the table reports the rebuild overhead and both sessions'
//      after-epoch peak bytes.
//
// The timing series then measures one epoch with and without a
// preceding eviction (the lazy-rebuild toll).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "cq/parser.h"
#include "db/delta.h"
#include "db/witness.h"
#include "obs/memstats.h"
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
    {"vc_er", "vc_er", 1200, 0.00075},
    {"perm", "perm", 64, 8.0},
};

constexpr double kMinReduction = 2.0;  // acceptance: >= 2x bytes/witness

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

struct TupleVecHash {
  size_t operator()(const std::vector<TupleId>& v) const {
    size_t h = 1469598103934665603ull;
    for (const TupleId& t : v) {
      h ^= TupleIdHash()(t);
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// What the pre-arena representation held for one collected family: the
/// materialized per-set vectors plus the content-hash dedup index that
/// owned its own copy of every set, measured with the same geometry
/// helpers ApproxBytes uses (obs/memstats.h).
uint64_t LegacyFamilyBytes(const std::vector<std::vector<TupleId>>& sets) {
  std::unordered_set<std::vector<TupleId>, TupleVecHash> dedup(sets.begin(),
                                                               sets.end());
  uint64_t bytes = obs::NestedVectorBytes(sets);
  bytes += obs::HashContainerBytes(dedup);
  for (const std::vector<TupleId>& s : dedup) bytes += obs::VectorBytes(s);
  return bytes;
}

// --- Table (a): representation ----------------------------------------------

struct ReprRow {
  std::string workload;
  size_t sets = 0;
  uint64_t legacy_bytes = 0;
  uint64_t arena_bytes = 0;
  double Ratio() const {
    return arena_bytes == 0 ? 0.0
                            : static_cast<double>(legacy_bytes) /
                                  static_cast<double>(arena_bytes);
  }
  bool Ok() const { return Ratio() >= kMinReduction; }
};

// --- Table (b): eviction ----------------------------------------------------

struct EvictRow {
  std::string workload;
  int epochs = 0;
  uint64_t evictions = 0;
  uint64_t rebuilds = 0;
  double evict_ms = 0;     // avg epoch, eviction forced before apply
  double resident_ms = 0;  // avg epoch, never-evicted twin
  uint64_t peak_bytes = 0;          // evicting session, after-epoch peak
  uint64_t peak_resident_bytes = 0;  // twin, after-epoch peak
  bool agree = true;
  double RebuildToll() const {
    return resident_ms > 0 ? evict_ms / resident_ms : 0.0;
  }
};

ReprRow RunRepresentation(const WorkloadConfig& w) {
  WitnessFamily family =
      CollectWitnessFamily(QueryOf(w), Instance(w), kNoWitnessLimit);
  ReprRow row;
  row.workload = w.name;
  row.sets = family.size();
  row.arena_bytes = family.ApproxBytes();
  row.legacy_bytes = LegacyFamilyBytes(family.Materialize());
  return row;
}

EvictRow RunEviction(const WorkloadConfig& w) {
  const Database base = Instance(w);
  const Query q = QueryOf(w);
  const UpdateLog log = MixedChurn(base, 12);

  EvictRow row;
  row.workload = w.name;
  IncrementalSession evicting(q, base, EngineOptions{});
  IncrementalSession twin(q, base, EngineOptions{});
  Database mirror = base;
  int epoch_index = 0;
  for (const Epoch& epoch : log.epochs) {
    if (epoch_index % 3 == 0) evicting.EvictColdState();
    Clock::time_point t0 = Clock::now();
    EpochOutcome a = evicting.Apply(epoch);
    row.evict_ms += MsSince(t0);

    Clock::time_point t1 = Clock::now();
    EpochOutcome b = twin.Apply(epoch);
    row.resident_ms += MsSince(t1);

    ApplyEpoch(epoch, &mirror);
    ResilienceResult scratch = ComputeResilienceExact(q, mirror);
    if (a.resilience != b.resilience || a.unbreakable != b.unbreakable ||
        a.unbreakable != scratch.unbreakable ||
        (!a.unbreakable && a.resilience != scratch.resilience)) {
      row.agree = false;
    }
    uint64_t bytes = evicting.ApproxMemory().TotalBytes();
    if (bytes > row.peak_bytes) row.peak_bytes = bytes;
    uint64_t resident = twin.ApproxMemory().TotalBytes();
    if (resident > row.peak_resident_bytes) row.peak_resident_bytes = resident;
    ++epoch_index;
  }
  row.epochs = epoch_index;
  row.evictions = evicting.evictions();
  row.rebuilds = evicting.rebuilds();
  row.evict_ms /= row.epochs;
  row.resident_ms /= row.epochs;
  return row;
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

// Prints both tables and returns how many rows failed their verdict
// (REGRESS or DISAGREE), each also reported on stderr.
int PrintArtifactTables() {
  int violations = 0;
  bench::PrintHeader(
      "E-memory (a): arena vs legacy witness-family representation",
      "Bytes held by the pre-refactor representation (per-set vectors +\n"
      "the dedup index owning a second copy of every set, rebuilt here\n"
      "and measured with the same geometry helpers) against the span\n"
      "arena's ApproxBytes. A ratio under the printed bar is REGRESS and\n"
      "fails the CI bench job.");
  std::printf("acceptance bar: >= %.1fx\n\n", kMinReduction);
  std::printf("%-8s %8s %14s %13s %8s %9s\n", "workload", "sets",
              "legacy_bytes", "arena_bytes", "ratio", "verdict");
  for (const WorkloadConfig& w : kWorkloads) {
    ReprRow r = RunRepresentation(w);
    std::printf("%-8s %8zu %14llu %13llu %7.2fx %9s\n", r.workload.c_str(),
                r.sets, static_cast<unsigned long long>(r.legacy_bytes),
                static_cast<unsigned long long>(r.arena_bytes), r.Ratio(),
                r.Ok() ? "ok" : "REGRESS");
    if (!r.Ok()) {
      std::fprintf(stderr,
                   "bench_memory: %s arena reduction %.2fx is under the "
                   "%.1fx bar — REGRESS\n",
                   r.workload.c_str(), r.Ratio(), kMinReduction);
      ++violations;
    }
  }

  bench::PrintHeader(
      "E-memory (b): eviction / lazy-rebuild epochs",
      "IncrementalSession under mixed churn with EvictColdState() forced\n"
      "every 3rd epoch, against a never-evicted twin and a from-scratch\n"
      "exact recompute of every answer. agree=DISAGREE fails CI; the\n"
      "toll column is evicting/resident per-epoch time (the price of\n"
      "serving memory-bounded).");
  std::printf("%-8s %7s %6s %8s %11s %12s %6s %11s %11s %9s\n", "workload",
              "epochs", "evict", "rebuild", "evict ms", "resident ms", "toll",
              "peak_evict", "peak_resid", "agree");
  for (const WorkloadConfig& w : kWorkloads) {
    EvictRow r = RunEviction(w);
    std::printf("%-8s %7d %6llu %8llu %11.3f %12.3f %5.1fx %11llu %11llu %9s\n",
                r.workload.c_str(), r.epochs,
                static_cast<unsigned long long>(r.evictions),
                static_cast<unsigned long long>(r.rebuilds), r.evict_ms,
                r.resident_ms, r.RebuildToll(),
                static_cast<unsigned long long>(r.peak_bytes),
                static_cast<unsigned long long>(r.peak_resident_bytes),
                r.agree ? "yes" : "DISAGREE");
    if (!r.agree) {
      std::fprintf(stderr,
                   "bench_memory: %s eviction stream DISAGREE with the "
                   "oracle\n",
                   r.workload.c_str());
      ++violations;
    }
  }
  std::printf("\n");
  return violations;
}

}  // namespace rescq

int main(int argc, char** argv) {
  if (rescq::PrintArtifactTables() > 0) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
