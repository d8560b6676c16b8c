// E12: the network-flow substrate that every PTIME construction rests on.
// Times Dinic max-flow on layered graphs and König bipartite vertex
// cover; flow_test holds their values.

#include <benchmark/benchmark.h>

#include "flow/bipartite.h"
#include "flow/max_flow.h"
#include "util/rng.h"

namespace rescq {
namespace {

// Layered graph: `layers` layers of `width` nodes, complete unit-capacity
// edges between consecutive layers.
int64_t LayeredFlow(int layers, int width) {
  MaxFlow f(2 + layers * width);
  int s = 0, t = 1;
  auto node = [&](int layer, int i) { return 2 + layer * width + i; };
  for (int i = 0; i < width; ++i) f.AddEdge(s, node(0, i), 1);
  for (int l = 0; l + 1 < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      for (int j = 0; j < width; ++j) f.AddEdge(node(l, i), node(l + 1, j), 1);
    }
  }
  for (int i = 0; i < width; ++i) f.AddEdge(node(layers - 1, i), t, 1);
  return f.Compute(s, t);
}

void BM_DinicLayered(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LayeredFlow(8, width));
  }
}
BENCHMARK(BM_DinicLayered)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Konig(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(static_cast<uint64_t>(n));
  std::vector<std::pair<int, int>> edges;
  for (int l = 0; l < n; ++l) {
    for (int r = 0; r < n; ++r) {
      if (rng.Chance(1, 8)) edges.emplace_back(l, r);
    }
  }
  for (auto _ : state) {
    BipartiteCover cover(n, n);
    for (auto [l, r] : edges) cover.AddEdge(l, r);
    cover.Compute();
    benchmark::DoNotOptimize(cover.CoverSize());
  }
}
BENCHMARK(BM_Konig)->Arg(32)->Arg(128)->Arg(512);

}  // namespace
}  // namespace rescq

BENCHMARK_MAIN();
