#ifndef RESCQ_RESILIENCE_FLOW_CUT_H_
#define RESCQ_RESILIENCE_FLOW_CUT_H_

#include "db/value.h"
#include "flow/max_flow.h"
#include "resilience/result.h"
#include "util/function_ref.h"

namespace rescq {

/// Adds the edge of `tuple`: capacity 1 tagged with PackTupleId(tuple)
/// when cutting it may delete the tuple, ∞ and untagged otherwise.
void AddTupleEdge(MaxFlow& flow, int from, int to, TupleId tuple,
                  bool deletable = true);

/// The one step that turns a flow construction's network into its
/// answer. `flow` runs from node 0 (source) to node 1 (sink); each finite
/// edge is tagged with the packed tuple that cutting it deletes, and ∞
/// edges are untagged. Runs the max flow: an infinite flow reports
/// `unbreakable`. Otherwise each min-cut edge's tuple, passed through
/// `pick` when given (a construction whose cut edge stands for one of
/// several tuples chooses it there, after the flow), joins the
/// contingency set, sorted and distinct. Checks that no untagged edge is
/// cut and, by Lemma 55, that the number of distinct tuples equals the
/// flow value.
ResilienceResult SolveMinCut(MaxFlow& flow, SolverKind solver,
                             FunctionRef<TupleId(TupleId)> pick = {});

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_FLOW_CUT_H_
