// E12: the network-flow substrate that every PTIME construction rests on.
// Times Dinic max-flow on layered graphs; flow_test holds the values, and
// its Bipartite cases check the König cover on the unit network.

#include <benchmark/benchmark.h>

#include "flow/max_flow.h"

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

}  // namespace
}  // namespace rescq

BENCHMARK_MAIN();
