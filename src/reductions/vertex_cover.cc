#include "reductions/vertex_cover.h"

#include "resilience/exact_solver.h"

namespace rescq {

VertexCoverResult MinVertexCover(const Graph& g) {
  VertexCoverResult result;
  if (g.edges.empty()) return result;
  HittingSetFamily sets;
  for (auto [u, v] : g.edges) {
    const int edge[] = {u, v};
    sets.Add(edge, 2);
  }
  HittingSetResult hs = SolveMinHittingSet(sets);
  result.size = hs.size;
  result.cover = hs.chosen;
  return result;
}

}  // namespace rescq
