#include "resilience/flow_cut.h"

#include <algorithm>

#include "util/check.h"

namespace rescq {

void AddTupleEdge(MaxFlow& flow, int from, int to, TupleId tuple,
                  bool deletable) {
  if (deletable) {
    flow.AddEdge(from, to, 1, static_cast<int64_t>(PackTupleId(tuple)));
  } else {
    flow.AddEdge(from, to, kInfCapacity);
  }
}

ResilienceResult SolveMinCut(MaxFlow& flow, SolverKind solver,
                             FunctionRef<TupleId(TupleId)> pick) {
  ResilienceResult result;
  result.solver = solver;
  const int64_t value = flow.Compute(0, 1);
  if (value >= kInfCapacity) {
    result.unbreakable = true;
    return result;
  }
  for (int e : flow.MinCutEdges()) {
    const int64_t tag = flow.edge(e).tag;
    RESCQ_CHECK_MSG(tag >= 0, "the min cut took an undeletable edge");
    const TupleId tuple = UnpackTupleId(static_cast<uint64_t>(tag));
    result.contingency.push_back(pick ? pick(tuple) : tuple);
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  result.contingency.erase(
      std::unique(result.contingency.begin(), result.contingency.end()),
      result.contingency.end());
  // Lemma 55: a (cardinality-)minimal cut never takes two copies of one
  // tuple, so the cut value equals the number of distinct tuples.
  RESCQ_CHECK_EQ(static_cast<int64_t>(result.contingency.size()), value);
  result.resilience = static_cast<int>(value);
  return result;
}

}  // namespace rescq
