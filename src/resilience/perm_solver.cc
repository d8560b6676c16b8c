#include "resilience/perm_solver.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "complexity/patterns.h"
#include "db/witness.h"
#include "resilience/flow_cut.h"
#include "util/check.h"

namespace rescq {

namespace {

// Shape of an unbound-permutation query: the permutation pair plus at
// most one further endogenous atom L containing exactly one of the pair's
// variables.
struct PermShape {
  int a1 = -1;
  int a2 = -1;
  int l_atom = -1;  // -1 if the pair are the only endogenous atoms
};

std::optional<PermShape> MatchPermShape(const Query& q) {
  std::vector<int> endo = q.EndogenousAtoms();
  PermShape shape;
  // Find the permutation pair.
  for (size_t i = 0; i < endo.size() && shape.a1 < 0; ++i) {
    for (size_t j = i + 1; j < endo.size() && shape.a1 < 0; ++j) {
      const Atom& p = q.atom(endo[i]);
      const Atom& r = q.atom(endo[j]);
      if (p.relation != r.relation || p.arity() != 2 || r.arity() != 2) {
        continue;
      }
      if (ClassifyPair(q, endo[i], endo[j]) == PairPattern::kPermutation) {
        shape.a1 = endo[i];
        shape.a2 = endo[j];
      }
    }
  }
  if (shape.a1 < 0) return std::nullopt;
  VarId x = q.atom(shape.a1).vars[0];
  VarId y = q.atom(shape.a1).vars[1];
  for (int i : endo) {
    if (i == shape.a1 || i == shape.a2) continue;
    if (shape.l_atom != -1) return std::nullopt;  // more than one extra atom
    const Atom& a = q.atom(i);
    bool has_x = a.HasVar(x);
    bool has_y = a.HasVar(y);
    if (has_x == has_y) return std::nullopt;  // both or neither: not case 1
    shape.l_atom = i;
  }
  return shape;
}

}  // namespace

bool PermutationCountApplies(const Query& q) {
  std::optional<PermShape> shape = MatchPermShape(q);
  return shape.has_value() && shape->l_atom == -1;
}

bool UnboundPermutationFlowApplies(const Query& q) {
  std::optional<PermShape> shape = MatchPermShape(q);
  return shape.has_value() && shape->l_atom != -1;
}

ResilienceResult SolvePermutationCount(const Query& q, const Database& db) {
  RESCQ_CHECK_MSG(PermutationCountApplies(q),
                  "witness counting needs exactly a permutation pair");
  ResilienceResult result;
  result.solver = SolverKind::kPermCount;
  WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
  // Every witness uses the endogenous pair, so no set is empty.
  RESCQ_CHECK(!family.unbreakable);
  // Each tuple participates in exactly one witness tuple-set: the sets are
  // pairwise disjoint, so the minimum hitting set takes one per set.
  result.resilience = static_cast<int>(family.size());
  for (size_t i = 0; i < family.size(); ++i) {
    result.contingency.push_back(*family.begin(i));
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  return result;
}

ResilienceResult SolveUnboundPermutationFlow(const Query& q,
                                             const Database& db) {
  std::optional<PermShape> shape = MatchPermShape(q);
  RESCQ_CHECK_MSG(shape.has_value() && shape->l_atom != -1,
                  "the pair flow needs a permutation pair plus one atom L");

  // s -> L tuple (capacity 1) -> pair (∞, one edge per witness) -> t
  // (capacity 1). Witnesses stream in enumeration order, so nodes and
  // edges are added in the order a materialized witness list would give.
  MaxFlow flow(2);
  const int s = 0;
  const int t = 1;
  // L nodes by L tuple. Pair nodes by the pair's two tuples, sorted (one
  // tuple twice when both atoms matched it): both belong to the
  // permutation relation, so their rows, packed in a word, are the key.
  std::unordered_map<TupleId, int, TupleIdHash> l_nodes;
  std::unordered_map<uint64_t, int> pair_nodes;

  ForEachWitness(q, db, [&](const Witness& w) {
    TupleId l = w.atom_tuples[static_cast<size_t>(shape->l_atom)];
    auto [lit, lnew] = l_nodes.try_emplace(l, -1);
    if (lnew) {
      lit->second = flow.AddNode();
      AddTupleEdge(flow, s, lit->second, l);
    }
    TupleId lo = w.atom_tuples[static_cast<size_t>(shape->a1)];
    TupleId hi = w.atom_tuples[static_cast<size_t>(shape->a2)];
    if (hi < lo) std::swap(lo, hi);
    auto [pit, pnew] = pair_nodes.try_emplace(
        uint64_t{static_cast<uint32_t>(lo.row)} << 32 |
            static_cast<uint32_t>(hi.row),
        -1);
    if (pnew) {
      pit->second = flow.AddNode();
      AddTupleEdge(flow, pit->second, t, lo);  // cutting it deletes `lo`
    }
    flow.AddEdge(lit->second, pit->second, kInfCapacity);
    return true;
  });
  return SolveMinCut(flow, SolverKind::kUnboundPermFlow);
}

}  // namespace rescq
