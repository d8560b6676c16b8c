// E-exact: the overhauled exact path (streaming witnesses, connected
// components, max-flow lower bound) against the seed branch-and-bound it
// replaced, on the hitting-set families the vc_er / vc_grid workload
// scenarios produce. The artifact table reports per-size wall times for
// both solvers, agreement of the optima, and the new solver's search
// counters; the timing series then benchmarks both on fixed instances.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "bench_util.h"
#include "cq/parser.h"
#include "resilience/exact_solver.h"
#include "workload/generators.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

// ---------------------------------------------------------------------------
// Seed baseline: a faithful copy of the pre-overhaul SolveMinHittingSet —
// one global branch-and-bound (no component split), greedy packing lower
// bound only, and the specialized vertex-cover search with the greedy
// maximal-matching bound. Kept here so the benchmark measures the real
// before/after, not a strawman.
// ---------------------------------------------------------------------------
namespace seedbb {

struct Solver {
  std::vector<std::vector<int>> sets;
  std::vector<std::vector<int>> element_sets;
  int num_elements = 0;

  std::vector<int> hit_count;
  std::vector<bool> chosen;
  std::vector<int> current;
  std::vector<int> best;
  int best_size = 0;
  uint64_t nodes = 0;

  void Init(const HittingSetFamily& input) {
    std::vector<std::vector<int>> uniq;
    {
      std::set<std::vector<int>> seen;
      for (size_t i = 0; i < input.size(); ++i) {
        std::vector<int> sorted(input.begin(i), input.end(i));
        std::sort(sorted.begin(), sorted.end());
        sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
        if (seen.insert(sorted).second) uniq.push_back(std::move(sorted));
      }
    }
    std::sort(uniq.begin(), uniq.end(),
              [](const std::vector<int>& a, const std::vector<int>& b) {
                return a.size() < b.size();
              });
    for (const std::vector<int>& s : uniq) {
      bool has_subset = false;
      for (const std::vector<int>& t : sets) {
        if (t.size() >= s.size()) continue;
        if (std::includes(s.begin(), s.end(), t.begin(), t.end())) {
          has_subset = true;
          break;
        }
      }
      if (!has_subset) sets.push_back(s);
    }
    for (const std::vector<int>& s : sets) {
      for (int e : s) num_elements = std::max(num_elements, e + 1);
    }
    element_sets.resize(static_cast<size_t>(num_elements));
    for (size_t i = 0; i < sets.size(); ++i) {
      for (int e : sets[i]) {
        element_sets[static_cast<size_t>(e)].push_back(static_cast<int>(i));
      }
    }
    hit_count.assign(sets.size(), 0);
    chosen.assign(static_cast<size_t>(num_elements), false);
  }

  void Choose(int e) {
    chosen[static_cast<size_t>(e)] = true;
    current.push_back(e);
    for (int s : element_sets[static_cast<size_t>(e)]) {
      ++hit_count[static_cast<size_t>(s)];
    }
  }

  void Unchoose(int e) {
    chosen[static_cast<size_t>(e)] = false;
    current.pop_back();
    for (int s : element_sets[static_cast<size_t>(e)]) {
      --hit_count[static_cast<size_t>(s)];
    }
  }

  void GreedyUpperBound() {
    std::vector<bool> open(sets.size(), true);
    size_t open_count = 0;
    for (size_t i = 0; i < sets.size(); ++i) {
      open[i] = hit_count[i] == 0;
      open_count += open[i] ? 1 : 0;
    }
    std::vector<int> greedy = current;
    std::vector<int> freq(static_cast<size_t>(num_elements), 0);
    while (open_count > 0) {
      std::fill(freq.begin(), freq.end(), 0);
      for (size_t i = 0; i < sets.size(); ++i) {
        if (!open[i]) continue;
        for (int e : sets[i]) ++freq[static_cast<size_t>(e)];
      }
      int best_e = 0;
      for (int e = 1; e < num_elements; ++e) {
        if (freq[static_cast<size_t>(e)] > freq[static_cast<size_t>(best_e)]) {
          best_e = e;
        }
      }
      greedy.push_back(best_e);
      for (int s : element_sets[static_cast<size_t>(best_e)]) {
        if (open[static_cast<size_t>(s)]) {
          open[static_cast<size_t>(s)] = false;
          --open_count;
        }
      }
    }
    if (best.empty() || static_cast<int>(greedy.size()) < best_size) {
      best = greedy;
      best_size = static_cast<int>(greedy.size());
    }
  }

  int PackingLowerBound() {
    int packed = 0;
    std::vector<bool> used(static_cast<size_t>(num_elements), false);
    for (const std::vector<int>& s : sets) {
      bool open = true;
      bool disjoint = true;
      for (int e : s) {
        if (chosen[static_cast<size_t>(e)]) {
          open = false;
          break;
        }
        if (used[static_cast<size_t>(e)]) disjoint = false;
      }
      if (!open || !disjoint) continue;
      ++packed;
      for (int e : s) used[static_cast<size_t>(e)] = true;
    }
    return packed;
  }

  int PickBranchSet() {
    int best_set = -1;
    size_t best_sz = ~size_t{0};
    for (size_t i = 0; i < sets.size(); ++i) {
      if (hit_count[i] > 0) continue;
      if (sets[i].size() < best_sz) {
        best_sz = sets[i].size();
        best_set = static_cast<int>(i);
        if (best_sz == 1) break;
      }
    }
    return best_set;
  }

  void Search() {
    ++nodes;
    int branch_set = PickBranchSet();
    if (branch_set < 0) {
      if (static_cast<int>(current.size()) < best_size) {
        best = current;
        best_size = static_cast<int>(current.size());
      }
      return;
    }
    int lb = PackingLowerBound();
    if (static_cast<int>(current.size()) + lb >= best_size) return;

    std::vector<int> elems = sets[static_cast<size_t>(branch_set)];
    std::sort(elems.begin(), elems.end(), [&](int a, int b) {
      return element_sets[static_cast<size_t>(a)].size() >
             element_sets[static_cast<size_t>(b)].size();
    });
    for (int e : elems) {
      Choose(e);
      Search();
      Unchoose(e);
    }
  }
};

struct VcSolver {
  std::vector<std::set<int>> adj;
  std::vector<int> cover;
  std::vector<int> best;
  size_t best_size = ~size_t{0};
  uint64_t nodes = 0;

  void TakeVertex(int v) {
    cover.push_back(v);
    std::set<int> neighbors = adj[static_cast<size_t>(v)];
    for (int u : neighbors) {
      adj[static_cast<size_t>(u)].erase(v);
    }
    adj[static_cast<size_t>(v)].clear();
  }

  void Reduce() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t v = 0; v < adj.size(); ++v) {
        if (adj[v].size() == 1) {
          TakeVertex(*adj[v].begin());
          changed = true;
        }
      }
    }
  }

  size_t MatchingLowerBound() const {
    std::vector<bool> used(adj.size(), false);
    size_t matching = 0;
    for (size_t v = 0; v < adj.size(); ++v) {
      if (used[v]) continue;
      for (int u : adj[v]) {
        if (!used[static_cast<size_t>(u)]) {
          used[v] = true;
          used[static_cast<size_t>(u)] = true;
          ++matching;
          break;
        }
      }
    }
    return matching;
  }

  void Search() {
    ++nodes;
    Reduce();
    int branch = -1;
    size_t max_deg = 0;
    for (size_t v = 0; v < adj.size(); ++v) {
      if (adj[v].size() > max_deg) {
        max_deg = adj[v].size();
        branch = static_cast<int>(v);
      }
    }
    if (branch < 0) {
      if (cover.size() < best_size) {
        best = cover;
        best_size = cover.size();
      }
      return;
    }
    if (cover.size() + MatchingLowerBound() >= best_size) return;

    std::vector<std::set<int>> saved_adj = adj;
    size_t saved_cover = cover.size();
    TakeVertex(branch);
    Search();
    adj = saved_adj;
    cover.resize(saved_cover);
    std::set<int> neighbors = adj[static_cast<size_t>(branch)];
    for (int u : neighbors) TakeVertex(u);
    Search();
    adj = saved_adj;
    cover.resize(saved_cover);
  }
};

struct Result {
  int size = 0;
  uint64_t nodes = 0;
};

Result SolveAsVertexCover(const std::vector<std::vector<int>>& sets,
                          int num_elements) {
  std::vector<bool> forced(static_cast<size_t>(num_elements), false);
  for (const std::vector<int>& s : sets) {
    if (s.size() == 1) forced[static_cast<size_t>(s[0])] = true;
  }
  VcSolver vc;
  vc.adj.resize(static_cast<size_t>(num_elements));
  for (const std::vector<int>& s : sets) {
    if (s.size() != 2) continue;
    if (forced[static_cast<size_t>(s[0])] ||
        forced[static_cast<size_t>(s[1])]) {
      continue;
    }
    vc.adj[static_cast<size_t>(s[0])].insert(s[1]);
    vc.adj[static_cast<size_t>(s[1])].insert(s[0]);
  }
  vc.Search();
  Result result;
  result.size = static_cast<int>(vc.best.size());
  result.nodes = vc.nodes;
  for (int e = 0; e < num_elements; ++e) {
    if (forced[static_cast<size_t>(e)]) ++result.size;
  }
  return result;
}

Result SolveMinHittingSet(const HittingSetFamily& sets) {
  Result result;
  if (sets.empty()) return result;
  Solver solver;
  solver.Init(sets);
  bool all_small = true;
  for (const std::vector<int>& s : solver.sets) {
    all_small = all_small && s.size() <= 2;
  }
  if (all_small) return SolveAsVertexCover(solver.sets, solver.num_elements);
  solver.best_size = 1 << 30;
  solver.GreedyUpperBound();
  solver.Search();
  result.size = solver.best_size;
  result.nodes = solver.nodes;
  return result;
}

}  // namespace seedbb

// ---------------------------------------------------------------------------

void PrintComparison() {
  bench::PrintHeader(
      "E-exact: component-split + flow-bound solver vs the seed "
      "branch-and-bound",
      "Minimum hitting set over the witness families of the vc_er and "
      "vc_grid scenarios (q_vc; Proposition 9 territory). 'seed' is the "
      "pre-overhaul global branch-and-bound with the greedy packing / "
      "matching bounds; 'new' splits connected components and adds the "
      "fractional-matching max-flow bound. Both return the optimum; the "
      "speedup column is seed/new median wall time.");
  struct Case {
    const char* scenario;
    int size;
  };
  const Case cases[] = {
      {"vc_er", 16},   {"vc_er", 20},   {"vc_er", 24},   {"vc_er", 26},
      {"vc_grid", 25}, {"vc_grid", 49}, {"vc_grid", 64}, {"vc_grid", 81},
  };
  std::printf("%-9s %5s %6s %6s | %12s %12s %8s | %10s %10s\n", "scenario",
              "size", "sets", "rho", "seed_ms", "new_ms", "speedup",
              "seed_nodes", "new_nodes");
  for (const Case& c : cases) {
    const HittingSetFamily family = bench::ScenarioFamily(c.scenario, c.size);
    seedbb::Result seed_result;
    double seed_ms = bench::BestMs(
        [&] { seed_result = seedbb::SolveMinHittingSet(family); }, 100.0, 8);
    HittingSetResult new_result;
    ExactStats stats;
    double new_ms = bench::BestMs(
        [&] {
          stats = ExactStats{};
          new_result = SolveMinHittingSet(family, ExactOptions{}, &stats);
        },
        100.0, 8);
    const char* agree = seed_result.size == new_result.size ? "" : "  DISAGREE";
    std::printf(
        "%-9s %5d %6zu %6d | %12.3f %12.3f %7.1fx | %10llu %10llu%s\n",
        c.scenario, c.size, family.size(), new_result.size, seed_ms, new_ms,
        new_ms > 0 ? seed_ms / new_ms : 0.0,
        static_cast<unsigned long long>(seed_result.nodes),
        static_cast<unsigned long long>(stats.nodes), agree);
  }
}

void BM_SeedHittingSet(benchmark::State& state, const char* scenario) {
  const HittingSetFamily family =
      bench::ScenarioFamily(scenario, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(seedbb::SolveMinHittingSet(family));
  }
}

void BM_ComponentFlowHittingSet(benchmark::State& state,
                                const char* scenario) {
  const HittingSetFamily family =
      bench::ScenarioFamily(scenario, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMinHittingSet(family));
  }
}

BENCHMARK_CAPTURE(BM_SeedHittingSet, vc_er, "vc_er")
    ->Arg(16)
    ->Arg(20)
    ->Arg(24)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ComponentFlowHittingSet, vc_er, "vc_er")
    ->Arg(16)
    ->Arg(20)
    ->Arg(24)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SeedHittingSet, vc_grid, "vc_grid")
    ->Arg(25)
    ->Arg(49)
    ->Arg(81)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ComponentFlowHittingSet, vc_grid, "vc_grid")
    ->Arg(25)
    ->Arg(49)
    ->Arg(81)
    ->Unit(benchmark::kMicrosecond);

// End to end: streaming witness collection + the new solver, the path
// `rescq batch` pays for every exact cell.
void BM_ExactResilienceEndToEnd(benchmark::State& state,
                                const char* scenario_name) {
  const Scenario* scenario = FindScenario(scenario_name);
  ScenarioParams params;
  params.size = static_cast<int>(state.range(0));
  params.seed = 1;
  Database db = scenario->generate(params);
  Query q = MustParseQuery(scenario->query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeResilienceExact(q, db));
  }
}

BENCHMARK_CAPTURE(BM_ExactResilienceEndToEnd, vc_er, "vc_er")
    ->Arg(16)
    ->Arg(20)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ExactResilienceEndToEnd, vc_grid, "vc_grid")
    ->Arg(49)
    ->Arg(81)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rescq

int main(int argc, char** argv) {
  rescq::PrintComparison();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
