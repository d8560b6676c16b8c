// The component-parallel exact path: the WorkerPool contract, the
// solver-threads invariance sweeps (every catalog query and workload
// scenario must answer — and count — identically at 1/2/4 workers),
// node-budget semantics when the budget trips mid-flight, and the
// incremental session's byte-identical parallel epochs. Each component
// solve is a pure function of its task (no cross-component state beyond
// the optional node budget), so nodes / prune counters are asserted
// byte-identical across thread counts, not just the answers. Carries
// the `parallel` CTest label and runs under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "complexity/catalog.h"
#include "cq/parser.h"
#include "db/witness.h"
#include "resilience/engine.h"
#include "resilience/exact_solver.h"
#include "resilience/incremental.h"
#include "resilience/solver.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workload/churn.h"
#include "workload/generators.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

// --- WorkerPool contract ----------------------------------------------------

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  // Per-index slots exercise the happens-before contract: each slot is
  // written by exactly one worker and read after Run with no extra
  // synchronization — any double execution or missing fence is a TSan
  // race and a value mismatch here.
  std::vector<int> slot(1000, 0);
  std::atomic<int> total{0};
  pool.Run(slot.size(), [&](size_t i) {
    slot[i] += static_cast<int>(i) + 1;
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 1000);
  for (size_t i = 0; i < slot.size(); ++i) {
    ASSERT_EQ(slot[i], static_cast<int>(i) + 1) << "index " << i;
  }
}

TEST(WorkerPool, IsReusableAcrossRunsOfAnySize) {
  WorkerPool pool(3);
  for (size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{97},
                       size_t{5}, size_t{0}, size_t{64}}) {
    std::vector<int> slot(count, 0);
    pool.Run(count, [&](size_t i) { slot[i] = 1; });
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(slot[i], 1) << "count " << count << " index " << i;
    }
  }
}

TEST(WorkerPool, ClampsThreadCountToAtLeastOne) {
  WorkerPool zero(0);
  EXPECT_EQ(zero.threads(), 1);
  WorkerPool negative(-3);
  EXPECT_EQ(negative.threads(), 1);
  // A one-thread pool is an inline loop; still exactly-once.
  int sum = 0;
  zero.Run(10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(WorkerPool, ParallelForCoversInlineAndPooledPaths) {
  for (int threads : {1, 2, 4, 9}) {
    std::vector<int> slot(33, 0);
    ParallelFor(threads, slot.size(), [&](size_t i) { slot[i] = 1; });
    for (size_t i = 0; i < slot.size(); ++i) {
      ASSERT_EQ(slot[i], 1) << "threads " << threads << " index " << i;
    }
  }
  ParallelFor(4, 0, [](size_t) { FAIL() << "count 0 must not call fn"; });
  EXPECT_GE(HardwareThreads(), 1);
}

// --- Hitting-set helpers ----------------------------------------------------

bool HitsEverySet(const std::vector<std::vector<int>>& sets,
                  const std::vector<int>& chosen) {
  for (const std::vector<int>& s : sets) {
    bool hit = false;
    for (int e : s) {
      for (int c : chosen) hit = hit || c == e;
    }
    if (!hit) return false;
  }
  return true;
}

// Asserts the parallel solve of `sets` at each thread count matches the
// serial answer on everything the determinism contract promises: the
// optimum size, feasibility, proof status, the chosen set, and — since
// every component searches against only its own incumbent — the exact
// node and prune counters.
void ExpectThreadInvariantHittingSet(const std::vector<std::vector<int>>& sets,
                                     const std::string& label) {
  const HittingSetFamily family = HittingSetFamily::From(sets);
  ExactStats serial_stats;
  HittingSetResult serial =
      SolveMinHittingSet(family, ExactOptions{}, &serial_stats);
  EXPECT_TRUE(serial.proven_optimal) << label;
  for (int threads : {2, 4}) {
    ExactOptions options;
    options.solver_threads = threads;
    ExactStats stats;
    HittingSetResult out = SolveMinHittingSet(family, options, &stats);
    ASSERT_EQ(out.size, serial.size) << label << " threads " << threads;
    ASSERT_EQ(static_cast<int>(out.chosen.size()), out.size)
        << label << " threads " << threads;
    EXPECT_TRUE(out.proven_optimal) << label << " threads " << threads;
    EXPECT_TRUE(HitsEverySet(sets, out.chosen))
        << label << " threads " << threads;
    EXPECT_EQ(out.chosen, serial.chosen) << label << " threads " << threads;
    EXPECT_EQ(stats.components, serial_stats.components)
        << label << " threads " << threads;
    EXPECT_EQ(stats.nodes, serial_stats.nodes)
        << label << " threads " << threads;
    EXPECT_EQ(stats.packing_prunes, serial_stats.packing_prunes)
        << label << " threads " << threads;
    EXPECT_EQ(stats.flow_prunes, serial_stats.flow_prunes)
        << label << " threads " << threads;
  }
}

// --- Deterministic component fan-out ----------------------------------------

TEST(ComponentParallel, ManyEqualComponentsStayExact) {
  // Maximum fan-out pressure: 20 structurally identical components keep
  // every worker busy simultaneously. 12 triangles (the vertex-cover
  // path; each needs 2) and 8 three-element sets (the general path;
  // each needs 1).
  std::vector<std::vector<int>> sets;
  int next = 0;
  for (int c = 0; c < 12; ++c) {
    int a = next++, b = next++, d = next++;
    sets.push_back({a, b});
    sets.push_back({b, d});
    sets.push_back({a, d});
  }
  for (int c = 0; c < 8; ++c) {
    int a = next++, b = next++, d = next++;
    sets.push_back({a, b, d});
  }
  ExactStats stats;
  HittingSetResult serial =
      SolveMinHittingSet(HittingSetFamily::From(sets), ExactOptions{}, &stats);
  EXPECT_EQ(serial.size, 12 * 2 + 8 * 1);
  EXPECT_EQ(stats.components, 20);
  ExpectThreadInvariantHittingSet(sets, "equal components");
}

TEST(ComponentParallel, RandomMultiComponentInstancesStayExact) {
  // Nontrivial per-component searches: each component is a random
  // 3-uniform family, so the branch-and-bound actually descends while
  // siblings are still in flight. Mixing a vertex-cover component in
  // exercises both search cores side by side.
  Rng rng(0x9A11E7);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<int>> sets;
    int components = 3 + static_cast<int>(rng.Below(4));
    for (int c = 0; c < components; ++c) {
      int base = c * 100;
      if (rng.Chance(1, 3)) {
        // An Erdos–Renyi-ish edge component: pure vertex cover.
        for (int e = 0; e < 10; ++e) {
          int a = base + static_cast<int>(rng.Below(7));
          int b = base + static_cast<int>(rng.Below(7));
          if (a != b) sets.push_back({a, b});
        }
        sets.push_back({base, base + 1});  // keep the component non-empty
      } else {
        for (int s = 0; s < 8; ++s) {
          std::vector<int> set;
          for (int k = 0; k < 3; ++k) {
            set.push_back(base + static_cast<int>(rng.Below(9)));
          }
          sets.push_back(set);
        }
      }
    }
    ExpectThreadInvariantHittingSet(sets,
                                    "round " + std::to_string(round));
  }
}

// --- Node-budget semantics mid-flight ---------------------------------------

std::vector<std::vector<int>> HardMultiComponentFamily() {
  Rng rng(0xB0D6E7);
  std::vector<std::vector<int>> sets;
  for (int c = 0; c < 8; ++c) {
    for (int s = 0; s < 12; ++s) {
      std::vector<int> set;
      for (int k = 0; k < 3; ++k) {
        set.push_back(c * 100 + static_cast<int>(rng.Below(12)));
      }
      sets.push_back(set);
    }
  }
  return sets;
}

TEST(NodeBudget, TrippingMidFlightKeepsAFeasibleIncumbent) {
  std::vector<std::vector<int>> sets = HardMultiComponentFamily();
  const HittingSetFamily family = HittingSetFamily::From(sets);
  HittingSetResult optimal = SolveMinHittingSet(family);
  ASSERT_TRUE(optimal.proven_optimal);
  for (int threads : {1, 2, 4}) {
    ExactOptions options;
    options.solver_threads = threads;
    options.node_budget = 4;  // trips inside the first components' searches
    ExactStats stats;
    HittingSetResult out = SolveMinHittingSet(family, options, &stats);
    EXPECT_TRUE(stats.node_budget_exceeded) << "threads " << threads;
    EXPECT_FALSE(out.proven_optimal) << "threads " << threads;
    // The incumbent is still a real hitting set (the greedy seeds run
    // before any budgeted search), just possibly not minimum.
    EXPECT_TRUE(HitsEverySet(sets, out.chosen)) << "threads " << threads;
    EXPECT_EQ(static_cast<int>(out.chosen.size()), out.size)
        << "threads " << threads;
    EXPECT_GE(out.size, optimal.size) << "threads " << threads;
    // One worker tripping the shared budget stops the others; the node
    // count may overshoot by at most one node per worker.
    EXPECT_LE(stats.nodes,
              options.node_budget + static_cast<uint64_t>(threads))
        << "threads " << threads;
  }
}

TEST(NodeBudget, GenerousBudgetIsNeverTrippedInParallel) {
  const HittingSetFamily family =
      HittingSetFamily::From(HardMultiComponentFamily());
  HittingSetResult optimal = SolveMinHittingSet(family);
  ExactOptions options;
  options.solver_threads = 4;
  options.node_budget = 1u << 20;
  ExactStats stats;
  HittingSetResult out = SolveMinHittingSet(family, options, &stats);
  EXPECT_FALSE(stats.node_budget_exceeded);
  EXPECT_TRUE(out.proven_optimal);
  EXPECT_EQ(out.size, optimal.size);
}

// --- Engine-level invariance sweeps -----------------------------------------

// Solves one instance on the serial reference engine and at 2 and 4
// solver threads, asserting everything the contract keeps deterministic:
// the answer, the contingency size (and that it verifies), and ALL the
// search counters — witnesses, sets, components, nodes, and both prune
// kinds. Un-budgeted component solves share no state, so even the node
// counts are byte-identical at any thread count.
void ExpectEngineInvariance(ResilienceEngine& serial, ResilienceEngine& two,
                            ResilienceEngine& four, const Query& q,
                            const Database& db, const std::string& label) {
  SolveOutcome ref = serial.Solve(q, db);
  ASSERT_TRUE(ref.error.empty()) << label << ": " << ref.error;
  ResilienceEngine* engines[] = {&two, &four};
  for (ResilienceEngine* engine : engines) {
    int threads = engine->options().solver_threads;
    SolveOutcome out = engine->Solve(q, db);
    ASSERT_TRUE(out.error.empty())
        << label << " threads " << threads << ": " << out.error;
    ASSERT_EQ(out.result.unbreakable, ref.result.unbreakable)
        << label << " threads " << threads;
    ASSERT_EQ(out.result.resilience, ref.result.resilience)
        << label << " threads " << threads;
    EXPECT_EQ(out.result.contingency.size(), ref.result.contingency.size())
        << label << " threads " << threads;
    EXPECT_EQ(out.exact.witnesses, ref.exact.witnesses)
        << label << " threads " << threads;
    EXPECT_EQ(out.exact.witness_sets, ref.exact.witness_sets)
        << label << " threads " << threads;
    EXPECT_EQ(out.exact.components, ref.exact.components)
        << label << " threads " << threads;
    EXPECT_EQ(out.exact.nodes, ref.exact.nodes)
        << label << " threads " << threads;
    EXPECT_EQ(out.exact.packing_prunes, ref.exact.packing_prunes)
        << label << " threads " << threads;
    EXPECT_EQ(out.exact.flow_prunes, ref.exact.flow_prunes)
        << label << " threads " << threads;
    if (!out.result.unbreakable) {
      Database copy = db;
      EXPECT_TRUE(VerifyContingency(q, copy, out.result.contingency))
          << label << " threads " << threads;
    }
  }
}

struct EngineTriple {
  EngineTriple() : serial(Options(1)), two(Options(2)), four(Options(4)) {}
  static EngineOptions Options(int threads) {
    EngineOptions options;
    options.solver_threads = threads;
    return options;
  }
  ResilienceEngine serial;
  ResilienceEngine two;
  ResilienceEngine four;
};

class ParallelCatalogInvariance
    : public ::testing::TestWithParam<CatalogEntry> {};

TEST_P(ParallelCatalogInvariance, UniformInstancesMatchAcrossThreadCounts) {
  const CatalogEntry& entry = GetParam();
  Query q = MustParseQuery(entry.text);
  EngineTriple engines;
  for (int size : {4, 6}) {
    for (uint64_t seed : {1u, 2u}) {
      Database db = GenerateUniform(q, {size, 0.5, seed});
      ExpectEngineInvariance(engines.serial, engines.two, engines.four, q, db,
                             entry.name + " size " + std::to_string(size) +
                                 " seed " + std::to_string(seed));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paper, ParallelCatalogInvariance, ::testing::ValuesIn(PaperCatalog()),
    [](const ::testing::TestParamInfo<CatalogEntry>& info) {
      return info.param.name;
    });

TEST(ParallelInvariance, EveryScenarioMatchesAcrossThreadCounts) {
  EngineTriple engines;
  for (const Scenario& scenario : ScenarioCatalog()) {
    Query q = MustParseQuery(scenario.query);
    for (int size : {4, 6}) {
      for (uint64_t seed : {1u, 2u}) {
        Database db = scenario.generate({size, 0.5, seed});
        ExpectEngineInvariance(engines.serial, engines.two, engines.four, q,
                               db,
                               scenario.name + " size " +
                                   std::to_string(size) + " seed " +
                                   std::to_string(seed));
      }
    }
  }
}

// --- Incremental sessions: byte-identical parallel epochs -------------------

TEST(ParallelInvariance, IncrementalEpochsAreByteIdentical) {
  // Unlike the engine path, the incremental contract promises FULL
  // determinism — contingency included — because every epoch's region
  // re-solve is the exact solver, whose component fan-out is
  // byte-identical at any thread count, and adoption runs in partition
  // order.
  struct Input {
    std::string text;
    Database base;
  };
  std::vector<Input> inputs;
  for (const char* text : {"R(x,y), R(y,x)", "R(x,y), R(y,z)",
                           "R(x,y), R(y,z), S^x(z,w)"}) {
    ScenarioParams params;
    params.size = 6;
    params.density = 0.5;
    params.seed = 7;
    inputs.push_back({text, GenerateUniform(MustParseQuery(text), params)});
  }
  {
    // A super-critical q_vc base (average degree ~3): one giant
    // component that nearly every epoch dissolves and re-solves whole.
    ScenarioParams params;
    params.size = 80;
    params.density = 0.04;
    params.seed = 7;
    inputs.push_back({"R(x), S(x,y), R(y)", GenerateErdosRenyiVC(params)});
  }
  for (const Input& input : inputs) {
    const std::string& text = input.text;
    Query q = MustParseQuery(text);
    for (const ChurnKind& kind : ChurnCatalog()) {
      ChurnParams churn;
      churn.epochs = 4;
      churn.rate = 0.3;
      churn.seed = 11;
      UpdateLog log = GenerateChurn(input.base, kind.name, churn);

      EngineOptions parallel_options;
      parallel_options.solver_threads = 4;
      IncrementalSession serial(q, input.base, EngineOptions{});
      IncrementalSession parallel(q, input.base, parallel_options);
      int epoch = 0;
      auto check = [&](const EpochOutcome& a, const EpochOutcome& b) {
        std::string label = text + " " + kind.name + " epoch " +
                            std::to_string(epoch);
        ASSERT_EQ(a.unbreakable, b.unbreakable) << label;
        ASSERT_EQ(a.resilience, b.resilience) << label;
        EXPECT_EQ(a.lower_bound, b.lower_bound) << label;
        EXPECT_EQ(a.upper_bound, b.upper_bound) << label;
        EXPECT_EQ(a.family_sets, b.family_sets) << label;
        EXPECT_EQ(a.resolved, b.resolved) << label;
        EXPECT_EQ(a.contingency, b.contingency) << label;
      };
      check(serial.current(), parallel.current());
      for (const Epoch& e : log.epochs) {
        ++epoch;
        EpochOutcome a = serial.Apply(e);
        EpochOutcome b = parallel.Apply(e);
        check(a, b);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace rescq
