#include <gtest/gtest.h>

#include "cq/parser.h"
#include "db/database.h"
#include "resilience/exact_solver.h"
#include "util/rng.h"

namespace rescq {
namespace {

TEST(HittingSet, EmptyFamily) {
  EXPECT_EQ(SolveMinHittingSet(HittingSetFamily{}).size, 0);
}

TEST(HittingSet, SingletonsForced) {
  HittingSetResult r =
      SolveMinHittingSet(HittingSetFamily::From({{3}, {5}, {3, 5, 7}}));
  EXPECT_EQ(r.size, 2);
  EXPECT_EQ(r.chosen, (std::vector<int>{3, 5}));
}

TEST(HittingSet, DisjointSetsNeedOneEach) {
  HittingSetResult r =
      SolveMinHittingSet(HittingSetFamily::From({{0, 1}, {2, 3}, {4, 5}}));
  EXPECT_EQ(r.size, 3);
}

TEST(HittingSet, SharedElementCoversAll) {
  HittingSetResult r =
      SolveMinHittingSet(HittingSetFamily::From({{0, 9}, {1, 9}, {2, 9}}));
  EXPECT_EQ(r.size, 1);
  EXPECT_EQ(r.chosen, (std::vector<int>{9}));
}

TEST(HittingSet, SupersetsIgnored) {
  HittingSetResult r =
      SolveMinHittingSet(HittingSetFamily::From({{0, 1}, {0, 1, 2, 3}}));
  EXPECT_EQ(r.size, 1);
}

TEST(HittingSet, TriangleVertexCover) {
  // Sets = edges of a triangle: minimum VC is 2.
  HittingSetResult r =
      SolveMinHittingSet(HittingSetFamily::From({{0, 1}, {1, 2}, {2, 0}}));
  EXPECT_EQ(r.size, 2);
}

TEST(HittingSet, C5VertexCover) {
  // 5-cycle: VC = 3.
  HittingSetResult r =
      SolveMinHittingSet(HittingSetFamily::From(
          {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}));
  EXPECT_EQ(r.size, 3);
}

TEST(HittingSet, PetersenGraphVertexCover) {
  // The Petersen graph has vertex cover number 6.
  std::vector<std::vector<int>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},   // outer cycle
      {5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5},   // inner pentagram
      {0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}};  // spokes
  EXPECT_EQ(SolveMinHittingSet(HittingSetFamily::From(edges)).size, 6);
}

TEST(HittingSet, ChosenElementsHitEverySet) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<int>> sets;
    int universe = 12;
    for (int s = 0; s < 15; ++s) {
      std::vector<int> set;
      int size = static_cast<int>(rng.Range(1, 4));
      for (int i = 0; i < size; ++i) {
        set.push_back(static_cast<int>(rng.Below(static_cast<uint64_t>(universe))));
      }
      sets.push_back(set);
    }
    HittingSetResult r = SolveMinHittingSet(HittingSetFamily::From(sets));
    for (const std::vector<int>& s : sets) {
      bool hit = false;
      for (int e : s) {
        for (int c : r.chosen) hit = hit || (c == e);
      }
      EXPECT_TRUE(hit);
    }
  }
}

// Brute force over all subsets of the universe.
int BruteForceHittingSet(const std::vector<std::vector<int>>& sets,
                         int universe) {
  int best = universe;
  for (uint32_t mask = 0; mask < (1u << universe); ++mask) {
    bool all_hit = true;
    for (const std::vector<int>& s : sets) {
      bool hit = false;
      for (int e : s) hit = hit || ((mask >> e) & 1);
      all_hit = all_hit && hit;
    }
    if (all_hit) best = std::min(best, __builtin_popcount(mask));
  }
  return best;
}

TEST(HittingSet, MatchesBruteForceOnRandomInstances) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    int universe = 10;
    std::vector<std::vector<int>> sets;
    for (int s = 0; s < 8; ++s) {
      std::vector<int> set;
      int size = static_cast<int>(rng.Range(1, 3));
      for (int i = 0; i < size; ++i) {
        set.push_back(static_cast<int>(rng.Below(static_cast<uint64_t>(universe))));
      }
      sets.push_back(set);
    }
    EXPECT_EQ(SolveMinHittingSet(HittingSetFamily::From(sets)).size,
              BruteForceHittingSet(sets, universe))
        << "trial " << trial;
  }
}

TEST(HittingSet, MatchesBruteForceWithMixedSetSizes) {
  // Larger sets exercise the element-domination reduction and the
  // packing-plus-matching split of the flow bound together.
  Rng rng(1234);
  for (int trial = 0; trial < 40; ++trial) {
    int universe = 12;
    std::vector<std::vector<int>> sets;
    int num_sets = static_cast<int>(rng.Range(4, 14));
    for (int s = 0; s < num_sets; ++s) {
      std::vector<int> set;
      int size = static_cast<int>(rng.Range(1, 4));
      for (int i = 0; i < size; ++i) {
        set.push_back(
            static_cast<int>(rng.Below(static_cast<uint64_t>(universe))));
      }
      sets.push_back(set);
    }
    ExactStats stats;
    HittingSetResult r = SolveMinHittingSet(HittingSetFamily::From(sets),
                                            ExactOptions{}, &stats);
    EXPECT_TRUE(r.proven_optimal);
    EXPECT_EQ(r.size, BruteForceHittingSet(sets, universe))
        << "trial " << trial;
    // The chosen elements really hit everything.
    for (const std::vector<int>& s : sets) {
      bool hit = false;
      for (int e : s) {
        hit = hit || std::find(r.chosen.begin(), r.chosen.end(), e) !=
                         r.chosen.end();
      }
      EXPECT_TRUE(hit) << "trial " << trial;
    }
  }
}

TEST(HittingSet, DisjointComponentsAreSolvedIndependently) {
  // Three triangles over disjoint elements: VC(triangle) = 2 each.
  std::vector<std::vector<int>> sets;
  for (int c = 0; c < 3; ++c) {
    int base = 10 * c;
    sets.push_back({base, base + 1});
    sets.push_back({base + 1, base + 2});
    sets.push_back({base + 2, base});
  }
  ExactStats stats;
  HittingSetResult r =
      SolveMinHittingSet(HittingSetFamily::From(sets), ExactOptions{}, &stats);
  EXPECT_EQ(r.size, 6);
  EXPECT_EQ(stats.components, 3);
}

TEST(HittingSet, DominatedElementsNeverNeeded) {
  // Element 9 appears only where 0 also appears: a q_vc-style private
  // element. The optimum never uses it.
  HittingSetResult r =
      SolveMinHittingSet(HittingSetFamily::From(
          {{0, 9, 1}, {0, 9, 2}, {1, 3}, {2, 3}}));
  EXPECT_EQ(r.size, 2);
  EXPECT_TRUE(std::find(r.chosen.begin(), r.chosen.end(), 9) ==
              r.chosen.end());
}

TEST(HittingSet, NodeBudgetReturnsFeasibleIncumbent) {
  // A hard-ish instance with a budget of one node: the answer must
  // still hit every set (the greedy incumbent), just without the
  // optimality proof.
  Rng rng(99);
  std::vector<std::vector<int>> sets;
  for (int s = 0; s < 20; ++s) {
    std::vector<int> set;
    for (int i = 0; i < 3; ++i) {
      set.push_back(static_cast<int>(rng.Below(15)));
    }
    sets.push_back(set);
  }
  ExactOptions options;
  options.node_budget = 1;
  ExactStats stats;
  HittingSetResult r =
      SolveMinHittingSet(HittingSetFamily::From(sets), options, &stats);
  EXPECT_TRUE(stats.node_budget_exceeded || r.proven_optimal);
  for (const std::vector<int>& s : sets) {
    bool hit = false;
    for (int e : s) {
      hit = hit ||
            std::find(r.chosen.begin(), r.chosen.end(), e) != r.chosen.end();
    }
    EXPECT_TRUE(hit);
  }
  // An unlimited run can only be at least as good.
  HittingSetResult full = SolveMinHittingSet(HittingSetFamily::From(sets));
  EXPECT_LE(full.size, r.size);
  EXPECT_TRUE(full.proven_optimal);
}

// --- Resilience via the exact solver -----------------------------------------

TEST(ExactResilience, QueryFalseIsZero) {
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  Query q = MustParseQuery("R(x,y), R(y,z)");  // no chain in db... a->b only
  ResilienceResult r = ComputeResilienceExact(q, db);
  EXPECT_FALSE(r.unbreakable);
  EXPECT_EQ(r.resilience, 0);
}

TEST(ExactResilience, PaperChainExample) {
  // Section 2 example: witnesses {t1,t2}, {t2,t3}, {t3}. t3 is forced;
  // then t1 or t2 kills the rest: resilience 2.
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  TupleId t3 = db.AddTuple("R", {v3, v3});
  Query q = MustParseQuery("R(x,y), R(y,z)");
  ResilienceResult r = ComputeResilienceExact(q, db);
  EXPECT_EQ(r.resilience, 2);
  EXPECT_TRUE(std::find(r.contingency.begin(), r.contingency.end(), t3) !=
              r.contingency.end());
}

TEST(ExactResilience, Example11DominationFails) {
  // Section 3.2, Example 11: q^sj1_rats over
  // D = {A(1),A(5),R(1,2),R(2,3),R(3,1),R(5,1),R(2,5)} has resilience 1
  // via R(1,2), showing dominated R must stay endogenous.
  Database db;
  auto val = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {val("1")});
  db.AddTuple("A", {val("5")});
  TupleId r12 = db.AddTuple("R", {val("1"), val("2")});
  db.AddTuple("R", {val("2"), val("3")});
  db.AddTuple("R", {val("3"), val("1")});
  db.AddTuple("R", {val("5"), val("1")});
  db.AddTuple("R", {val("2"), val("5")});
  Query q = MustParseQuery("A(x), R(x,y), R(y,z), R(z,x)");
  ResilienceResult r = ComputeResilienceExact(q, db);
  EXPECT_EQ(r.resilience, 1);
  EXPECT_EQ(r.contingency, (std::vector<TupleId>{r12}));

  // With R exogenous, the only contingency set is {A(1), A(5)}: size 2.
  Query q_exo = q.WithRelationExogenous("R");
  ResilienceResult r2 = ComputeResilienceExact(q_exo, db);
  EXPECT_EQ(r2.resilience, 2);
}

TEST(ExactResilience, UnbreakableWhenAllExogenous) {
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("a")});
  Query q = MustParseQuery("R^x(x,y)");
  ResilienceResult r = ComputeResilienceExact(q, db);
  EXPECT_TRUE(r.unbreakable);
}

TEST(ExactResilience, VertexCoverQuery) {
  // q_vc over the complete graph K4 (as a digraph both ways): every edge
  // is a witness; resilience = VC(K4) = 3.
  Database db;
  std::vector<Value> v;
  for (int i = 0; i < 4; ++i) v.push_back(db.InternIndexed("v", i));
  for (int i = 0; i < 4; ++i) db.AddTuple("R", {v[static_cast<size_t>(i)]});
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i != j) {
        db.AddTuple("S", {v[static_cast<size_t>(i)], v[static_cast<size_t>(j)]});
      }
    }
  }
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  EXPECT_EQ(ComputeResilienceExact(q, db).resilience, 3);
}

TEST(ExactResilience, PermutationPairsAreIndependent) {
  // q_perm: witnesses are the 2-cycles; each needs one deletion (Prop 33).
  Database db;
  auto val = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("R", {val("a"), val("b")});
  db.AddTuple("R", {val("b"), val("a")});
  db.AddTuple("R", {val("c"), val("d")});
  db.AddTuple("R", {val("d"), val("c")});
  db.AddTuple("R", {val("a"), val("c")});  // no inverse: not a witness
  Query q = MustParseQuery("R(x,y), R(y,x)");
  EXPECT_EQ(ComputeResilienceExact(q, db).resilience, 2);
}

// --- Budgets & streaming ------------------------------------------------------

TEST(WitnessFamilyCollection, DeduplicatesAndCounts) {
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  db.AddTuple("R", {v3, v3});
  Query q = MustParseQuery("R(x,y), R(y,z)");
  WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
  EXPECT_EQ(family.witnesses, 3u);  // (1,2,3), (2,3,3), (3,3,3)
  EXPECT_EQ(family.sets.size(), 3u);
  EXPECT_FALSE(family.unbreakable);
  EXPECT_FALSE(family.budget_exceeded);
}

TEST(WitnessFamilyCollection, BudgetTripsOnlyWhenWitnessesRemain) {
  Database db;
  for (int i = 0; i < 5; ++i) {
    db.AddTuple("R", {db.InternIndexed("a", i)});
  }
  Query q = MustParseQuery("R(x)");
  // Exactly at the instance's witness count: complete, not exceeded.
  WitnessFamily at = CollectWitnessFamily(q, db, 5);
  EXPECT_EQ(at.witnesses, 5u);
  EXPECT_FALSE(at.budget_exceeded);
  // One below: truncated and flagged.
  WitnessFamily under = CollectWitnessFamily(q, db, 4);
  EXPECT_EQ(under.witnesses, 4u);
  EXPECT_TRUE(under.budget_exceeded);
}

TEST(WitnessFamilyCollection, UnbreakableShortCircuits) {
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("a")});
  for (int i = 0; i < 50; ++i) {
    db.AddTuple("R", {db.InternIndexed("b", i), db.InternIndexed("b", i)});
  }
  Query q = MustParseQuery("R^x(x,y)");
  WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
  EXPECT_TRUE(family.unbreakable);
  // The first empty endogenous set stops enumeration.
  EXPECT_EQ(family.witnesses, 1u);
}

TEST(ExactResilience, WitnessBudgetIsAStructuredOutcome) {
  // Exceeding the witness budget must never yield a truncated "answer":
  // the stats flag is set and the result stays at the default.
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  db.AddTuple("R", {v3, v3});
  Query q = MustParseQuery("R(x,y), R(y,z)");
  ExactOptions options;
  options.witness_limit = 1;
  ExactStats stats;
  ResilienceResult r = ComputeResilienceExact(q, db, options, &stats);
  EXPECT_TRUE(stats.witness_budget_exceeded);
  EXPECT_EQ(stats.witnesses, 1u);
  EXPECT_EQ(r.resilience, 0);
  EXPECT_TRUE(r.contingency.empty());

  // A budget the instance fits under changes nothing.
  options.witness_limit = 100;
  ExactStats roomy;
  ResilienceResult full = ComputeResilienceExact(q, db, options, &roomy);
  EXPECT_FALSE(roomy.witness_budget_exceeded);
  EXPECT_EQ(full.resilience, 2);
}

TEST(ExactResilience, StatsReportSearchCounters) {
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  db.AddTuple("R", {v3, v3});
  Query q = MustParseQuery("R(x,y), R(y,z)");
  ExactStats stats;
  ResilienceResult r = ComputeResilienceExact(q, db, ExactOptions{}, &stats);
  EXPECT_EQ(r.resilience, 2);
  EXPECT_EQ(stats.witnesses, 3u);
  EXPECT_EQ(stats.witness_sets, 3u);
  EXPECT_GE(stats.components, 1);
  EXPECT_GE(stats.nodes, 1u);
  EXPECT_FALSE(stats.witness_budget_exceeded);
  EXPECT_FALSE(stats.node_budget_exceeded);
}

TEST(ExactResilience, NodeBudgetKeepsContingencyValid) {
  Rng rng(7);
  Query q = MustParseQuery("R(x,y), R(y,z)");
  for (int trial = 0; trial < 5; ++trial) {
    Database db;
    for (int e = 0; e < 20; ++e) {
      Value a = db.InternIndexed("n", static_cast<int>(rng.Below(7)));
      Value b = db.InternIndexed("n", static_cast<int>(rng.Below(7)));
      db.AddTuple("R", {a, b});
    }
    ExactOptions tight;
    tight.node_budget = 2;
    ExactStats stats;
    ResilienceResult r = ComputeResilienceExact(q, db, tight, &stats);
    ResilienceResult full = ComputeResilienceExact(q, db);
    if (full.unbreakable || full.resilience == 0) continue;
    // The budgeted answer is an upper bound whose contingency really
    // falsifies the query.
    EXPECT_GE(r.resilience, full.resilience);
    for (TupleId t : r.contingency) db.SetActive(t, false);
    EXPECT_FALSE(QueryHolds(q, db));
    db.ActivateAll();
  }
}

TEST(ExactResilience, ContingencySetActuallyBreaksQuery) {
  Rng rng(5);
  Query q = MustParseQuery("R(x,y), R(y,z)");
  for (int trial = 0; trial < 10; ++trial) {
    Database db;
    for (int e = 0; e < 15; ++e) {
      Value a = db.InternIndexed("n", static_cast<int>(rng.Below(6)));
      Value b = db.InternIndexed("n", static_cast<int>(rng.Below(6)));
      db.AddTuple("R", {a, b});
    }
    ResilienceResult r = ComputeResilienceExact(q, db);
    ASSERT_FALSE(r.unbreakable);
    for (TupleId t : r.contingency) db.SetActive(t, false);
    EXPECT_FALSE(QueryHolds(q, db));
    db.ActivateAll();
  }
}

}  // namespace
}  // namespace rescq
