#include <gtest/gtest.h>

#include "complexity/catalog.h"
#include "complexity/linearity.h"
#include "cq/parser.h"
#include "db/database.h"
#include "db/witness.h"
#include "resilience/exact_solver.h"
#include "resilience/linear_flow_solver.h"
#include "resilience/perm3_solver.h"
#include "resilience/perm_solver.h"
#include "resilience/plan.h"
#include "resilience/solver.h"
#include "util/rng.h"

namespace rescq {
namespace {

// Fills db with `tuples_per_relation` random tuples per query relation
// over a domain of `domain` constants.
Database RandomDatabase(const Query& q, int domain, int tuples_per_relation,
                        Rng& rng) {
  Database db;
  std::vector<Value> dom;
  for (int i = 0; i < domain; ++i) dom.push_back(db.InternIndexed("c", i));
  for (const std::string& rel : q.RelationNames()) {
    int arity = q.RelationArity(rel);
    for (int t = 0; t < tuples_per_relation; ++t) {
      std::vector<Value> row;
      for (int c = 0; c < arity; ++c) {
        row.push_back(dom[rng.Below(static_cast<uint64_t>(domain))]);
      }
      db.AddTuple(rel, row);
    }
  }
  return db;
}

// --- Property sweep: dispatcher agrees with the exact oracle on every
// --- PTIME query of the paper, over many random databases.

class PTimeSolverAgreement : public ::testing::TestWithParam<CatalogEntry> {};

TEST_P(PTimeSolverAgreement, MatchesExactOracleOnRandomDatabases) {
  const CatalogEntry& entry = GetParam();
  Query q = MustParseQuery(entry.text);
  Rng rng(0xC0FFEE ^ std::hash<std::string>()(entry.name));
  for (int trial = 0; trial < 30; ++trial) {
    int domain = 3 + static_cast<int>(rng.Below(4));
    int tuples = 4 + static_cast<int>(rng.Below(10));
    Database db = RandomDatabase(q, domain, tuples, rng);
    ResilienceResult fast = ComputeResilience(q, db);
    ResilienceResult exact = ComputeResilienceExact(q, db);
    ASSERT_EQ(fast.unbreakable, exact.unbreakable)
        << entry.name << " trial " << trial;
    if (exact.unbreakable) continue;
    EXPECT_EQ(fast.resilience, exact.resilience)
        << entry.name << " trial " << trial << " solver "
        << SolverKindName(fast.solver);
    EXPECT_EQ(static_cast<int>(fast.contingency.size()), fast.resilience);
    EXPECT_TRUE(VerifyContingency(q, db, fast.contingency))
        << entry.name << " trial " << trial;
  }
}

std::vector<CatalogEntry> PTimeEntries() {
  std::vector<CatalogEntry> out;
  for (const CatalogEntry& e : PaperCatalog()) {
    if (e.expected == Complexity::kPTime) out.push_back(e);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PTimeSolverAgreement, ::testing::ValuesIn(PTimeEntries()),
    [](const ::testing::TestParamInfo<CatalogEntry>& info) {
      return info.param.name;
    });

TEST(PTimeSolverAgreementAtScale, FlowConstructionsMatchExactUpTo200Tuples) {
  // Past the random sweep's sizes: 50 and 200 tuples per relation over
  // a quarter as many constants, so the PTIME constructions work on
  // large connected regions.
  for (const char* name : {"q_ACconf", "q_Aperm", "q_A3perm_R"}) {
    Query q = MustParseQuery(FindCatalogEntry(name)->text);
    for (int tuples : {50, 200}) {
      Rng rng(0xABC ^ static_cast<uint64_t>(tuples));
      Database db = RandomDatabase(q, tuples / 4, tuples, rng);
      ResilienceResult fast = ComputeResilience(q, db);
      ResilienceResult exact = ComputeResilienceExact(q, db);
      ASSERT_EQ(fast.unbreakable, exact.unbreakable) << name << " " << tuples;
      EXPECT_EQ(fast.resilience, exact.resilience) << name << " " << tuples;
      EXPECT_TRUE(VerifyContingency(q, db, fast.contingency))
          << name << " " << tuples;
    }
  }
}

// --- Hard queries still get correct answers through the exact solver ---------

class HardSolverAgreement : public ::testing::TestWithParam<CatalogEntry> {};

TEST_P(HardSolverAgreement, ExactPathIsUsedAndVerifies) {
  const CatalogEntry& entry = GetParam();
  Query q = MustParseQuery(entry.text);
  Rng rng(0xBEEF ^ std::hash<std::string>()(entry.name));
  for (int trial = 0; trial < 8; ++trial) {
    Database db = RandomDatabase(q, 4, 8, rng);
    ResilienceResult r = ComputeResilience(q, db);
    if (r.unbreakable) continue;
    EXPECT_TRUE(VerifyContingency(q, db, r.contingency))
        << entry.name << " trial " << trial;
    EXPECT_EQ(ComputeResilienceExact(q, db).resilience, r.resilience);
  }
}

std::vector<CatalogEntry> SomeHardEntries() {
  // A representative sample (the full NPC set would be slow under the
  // exact oracle on every trial).
  std::vector<CatalogEntry> out;
  for (const char* name : {"q_vc", "q_chain", "q_ABperm", "q_triangle",
                           "cf_p", "q_3chain", "z5"}) {
    out.push_back(*FindCatalogEntry(name));
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, HardSolverAgreement, ::testing::ValuesIn(SomeHardEntries()),
    [](const ::testing::TestParamInfo<CatalogEntry>& info) {
      return info.param.name;
    });

// --- Dispatcher picks the published algorithm ---------------------------------

struct KindCase {
  const char* query_name;
  SolverKind kind;
};

class DispatcherKind : public ::testing::TestWithParam<KindCase> {};

TEST_P(DispatcherKind, UsesExpectedAlgorithm) {
  const KindCase& kc = GetParam();
  Query q = CatalogQuery(kc.query_name);
  Rng rng(17);
  // Retry until a satisfying database is found so the solver actually runs.
  for (int trial = 0; trial < 50; ++trial) {
    Database db = RandomDatabase(q, 4, 12, rng);
    if (!QueryHolds(q, db)) continue;
    ResilienceResult r = ComputeResilience(q, db);
    if (r.unbreakable || r.resilience == 0) continue;
    EXPECT_EQ(SolverKindName(r.solver), SolverKindName(kc.kind))
        << kc.query_name;
    return;
  }
  GTEST_SKIP() << "no satisfying database generated";
}

INSTANTIATE_TEST_SUITE_P(
    Paper, DispatcherKind,
    ::testing::Values(KindCase{"q_lin", SolverKind::kLinearFlow},
                      KindCase{"q_ACconf", SolverKind::kLinearFlow},
                      KindCase{"q_perm", SolverKind::kPermCount},
                      KindCase{"q_Aperm", SolverKind::kUnboundPermFlow},
                      KindCase{"z3", SolverKind::kRepFlow},
                      KindCase{"q_TS3conf", SolverKind::kConf3Forced},
                      KindCase{"q_A3perm_R", SolverKind::kPerm3Flow},
                      KindCase{"q_Swx3perm_R", SolverKind::kPerm3Flow},
                      KindCase{"q_rats", SolverKind::kExactFallback},
                      KindCase{"q_brats", SolverKind::kExactFallback},
                      KindCase{"q_chain", SolverKind::kExact}),
    [](const ::testing::TestParamInfo<KindCase>& info) {
      return info.param.query_name;
    });

// --- Hand-built scenarios ------------------------------------------------------

TEST(LinearFlow, SimpleLinearChainOfRelations) {
  // A(x), R(x,y), B(y): two witnesses sharing A(a) -> delete A(a).
  Database db;
  Value a = db.Intern("a"), b1 = db.Intern("b1"), b2 = db.Intern("b2");
  TupleId ta = db.AddTuple("A", {a});
  db.AddTuple("R", {a, b1});
  db.AddTuple("R", {a, b2});
  db.AddTuple("B", {b1});
  db.AddTuple("B", {b2});
  Query q = MustParseQuery("A(x), R(x,y), B(y)");
  ResilienceResult r = SolveLinearFlow(q, db);
  EXPECT_EQ(r.resilience, 1);
  EXPECT_EQ(r.contingency, (std::vector<TupleId>{ta}));
}

TEST(LinearFlow, ExogenousTuplesNeverChosen) {
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  db.AddTuple("A", {a});
  db.AddTuple("R", {a, b});
  db.AddTuple("B", {b});
  Query q = MustParseQuery("A^x(x), R(x,y), B^x(y)");
  ResilienceResult r = SolveLinearFlow(q, db);
  EXPECT_EQ(r.resilience, 1);
  EXPECT_EQ(db.TupleToString(r.contingency[0]), "R(a,b)");
}

TEST(LinearFlow, UnbreakableAllExogenous) {
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  Query q = MustParseQuery("R^x(x,y)");
  ResilienceResult r = SolveLinearFlow(q, db);
  EXPECT_TRUE(r.unbreakable);
}

TEST(LinearFlow, NotLinearIsNeverPlannedForFlow) {
  // q_rats is PTIME but not linear: no flow runs on it.
  ResiliencePlan plan = BuildPlan(CatalogQuery("q_rats"));
  ASSERT_EQ(plan.components.size(), 1u);
  EXPECT_FALSE(IsLinear(plan.components[0].query));
  EXPECT_EQ(plan.components[0].solver, SolverKind::kExactFallback);
}

TEST(LinearFlow, ConfluenceSharedTupleCountedOnce) {
  // q_ACconf over a database where one R tuple serves both R positions:
  // A(a), R(a,b), C(a): witness (a,b,a) uses R(a,b) twice.
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  db.AddTuple("A", {a});
  db.AddTuple("R", {a, b});
  db.AddTuple("C", {a});
  Query q = CatalogQuery("q_ACconf");
  ResilienceResult r = SolveLinearFlow(q, db);
  EXPECT_EQ(r.resilience, 1);
}

TEST(PermSolvers, CountOnPairsAndLoops) {
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("R", {v("a"), v("b")});
  db.AddTuple("R", {v("b"), v("a")});
  db.AddTuple("R", {v("c"), v("c")});  // loop: witness by itself
  db.AddTuple("R", {v("d"), v("e")});  // no inverse: no witness
  Query q = CatalogQuery("q_perm");
  ResilienceResult r = SolvePermutationCount(q, db);
  EXPECT_EQ(r.resilience, 2);
}

TEST(PermSolvers, ShapePredicatesSplitTheUnboundPermutations) {
  EXPECT_TRUE(PermutationCountApplies(CatalogQuery("q_perm")));
  EXPECT_FALSE(UnboundPermutationFlowApplies(CatalogQuery("q_perm")));
  EXPECT_FALSE(PermutationCountApplies(CatalogQuery("q_Aperm")));
  EXPECT_TRUE(UnboundPermutationFlowApplies(CatalogQuery("q_Aperm")));
  // L holding both pair variables is not Prop 35's case 1.
  Query both = MustParseQuery("L(x,y), R(x,y), R(y,x)");
  EXPECT_FALSE(PermutationCountApplies(both));
  EXPECT_FALSE(UnboundPermutationFlowApplies(both));
}

TEST(PermSolvers, BipartiteSharedATuple) {
  // A(a) joins two pairs; deleting A(a) is optimal.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("a")});
  db.AddTuple("R", {v("a"), v("b")});
  db.AddTuple("R", {v("b"), v("a")});
  db.AddTuple("R", {v("a"), v("c")});
  db.AddTuple("R", {v("c"), v("a")});
  Query q = CatalogQuery("q_Aperm");
  ResilienceResult r = SolveUnboundPermutationFlow(q, db);
  EXPECT_EQ(r.resilience, 1);
  EXPECT_EQ(db.TupleToString(r.contingency[0]), "A(a)");
}

TEST(PermSolvers, SharedRPairBeatsTwoATuples) {
  // A(a), A(b) each witness only via pair {a,b}: deleting one R tuple of
  // the pair kills both witnesses.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("a")});
  db.AddTuple("A", {v("b")});
  db.AddTuple("R", {v("a"), v("b")});
  db.AddTuple("R", {v("b"), v("a")});
  Query q = CatalogQuery("q_Aperm");
  ResilienceResult r = SolveUnboundPermutationFlow(q, db);
  EXPECT_EQ(r.resilience, 1);
  EXPECT_EQ(db.TupleToString(r.contingency[0]).substr(0, 1), "R");
}

TEST(Perm3, OneWayTuplesAreDominatedByUnaryL) {
  // Proposition 13 graph: with A(x), a 1-way connector is never chosen.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("a")});
  db.AddTuple("R", {v("a"), v("b")});  // 1-way connector
  db.AddTuple("R", {v("b"), v("c")});
  db.AddTuple("R", {v("c"), v("b")});  // pair {b,c}
  Query q = CatalogQuery("q_A3perm_R");
  ResilienceResult r = SolvePerm3Flow(q, db);
  EXPECT_EQ(r.resilience, 1);
  // Either A(a) or one pair tuple; never the 1-way R(a,b).
  EXPECT_NE(db.TupleToString(r.contingency[0]), "R(a,b)");
}

TEST(Perm3, LoopPairs) {
  // Witness A(a),R(a,a): loop pair {a,a}.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("a")});
  db.AddTuple("R", {v("a"), v("a")});
  Query q = CatalogQuery("q_A3perm_R");
  ResilienceResult r = SolvePerm3Flow(q, db);
  EXPECT_EQ(r.resilience, 1);
}

TEST(Perm3, AbsentRelationGivesZero) {
  // No A tuples, then no R tuples: q is false and rho = 0, with or
  // without the other relation present.
  Query q = CatalogQuery("q_A3perm_R");
  Database no_a;
  auto v = [&](const char* s) { return no_a.Intern(s); };
  no_a.AddTuple("R", {v("a"), v("b")});
  no_a.AddTuple("R", {v("b"), v("a")});
  ResilienceResult r = SolvePerm3Flow(q, no_a);
  EXPECT_FALSE(r.unbreakable);
  EXPECT_EQ(r.resilience, 0);
  EXPECT_TRUE(r.contingency.empty());

  Database no_r;
  no_r.AddTuple("A", {no_r.Intern("a")});
  r = SolvePerm3Flow(q, no_r);
  EXPECT_FALSE(r.unbreakable);
  EXPECT_EQ(r.resilience, 0);
  EXPECT_TRUE(r.contingency.empty());
}

TEST(Perm3, SideRuleDeletesTheAliveSidesTuple) {
  // Prop 44 with two S tuples behind one value: the min cut takes the
  // pair edge and leaves that value's v node on the source side. The
  // pair is tagged R(lo,hi); the side rule must delete the tuple leaving
  // the alive value, since the loop on the other value keeps a witness
  // through the other tuple.
  Query q = CatalogQuery("q_Swx3perm_R");
  for (bool alive_is_hi : {true, false}) {
    Database db;
    const Value lo = db.Intern("lo"), hi = db.Intern("hi");
    const Value alive = alive_is_hi ? hi : lo;
    const Value dead = alive_is_hi ? lo : hi;
    db.AddTuple("S", {db.Intern("e1"), alive});
    db.AddTuple("S", {db.Intern("e2"), alive});
    TupleId leave = db.AddTuple("R", {alive, dead});
    db.AddTuple("R", {dead, alive});
    db.AddTuple("R", {dead, dead});
    ResilienceResult r = SolvePerm3Flow(q, db);
    EXPECT_EQ(r.resilience, 1) << alive_is_hi;
    EXPECT_EQ(r.contingency, (std::vector<TupleId>{leave})) << alive_is_hi;
    EXPECT_TRUE(VerifyContingency(q, db, r.contingency)) << alive_is_hi;
  }
}

TEST(Perm3, BinaryLMayPreferOneWayTuple) {
  // Prop 44: with many S(e,a) behind one 1-way R(a,b), deleting R(a,b)
  // (1 tuple) beats deleting all S tuples.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  for (int e = 0; e < 3; ++e) {
    db.AddTuple("S", {db.InternIndexed("e", e), v("a")});
  }
  db.AddTuple("R", {v("a"), v("b")});  // 1-way
  db.AddTuple("R", {v("b"), v("c")});
  db.AddTuple("R", {v("c"), v("b")});
  Query q = CatalogQuery("q_Swx3perm_R");
  ResilienceResult r = SolvePerm3Flow(q, db);
  EXPECT_EQ(r.resilience, 1);
}

TEST(Dispatcher, DisconnectedQueryTakesMinimumOverComponents) {
  // Component 1: A(x),R(x,y) with 3 witnesses; component 2: B(w) with 1
  // tuple. Minimum is the B side.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("a1")});
  db.AddTuple("A", {v("a2")});
  db.AddTuple("R", {v("a1"), v("b")});
  db.AddTuple("R", {v("a2"), v("b")});
  TupleId bw = db.AddTuple("B", {v("w")});
  Query q = MustParseQuery("A(x), R(x,y), B(w)");
  ResilienceResult r = ComputeResilience(q, db);
  EXPECT_EQ(r.resilience, 1);
  EXPECT_EQ(r.contingency, (std::vector<TupleId>{bw}));
}

TEST(Dispatcher, QueryFalseIsZero) {
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  Query q = MustParseQuery("R(x,y), R(y,z)");
  ResilienceResult r = ComputeResilience(q, db);
  EXPECT_EQ(r.resilience, 0);
  EXPECT_FALSE(r.unbreakable);
}

TEST(Dispatcher, Example11EndToEnd) {
  // The Section 3.2 example through the dispatcher (exact path: the query
  // has a triad).
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("1")});
  db.AddTuple("A", {v("5")});
  db.AddTuple("R", {v("1"), v("2")});
  db.AddTuple("R", {v("2"), v("3")});
  db.AddTuple("R", {v("3"), v("1")});
  db.AddTuple("R", {v("5"), v("1")});
  db.AddTuple("R", {v("2"), v("5")});
  Query q = MustParseQuery("A(x), R(x,y), R(y,z), R(z,x)");
  ResilienceResult r = ComputeResilience(q, db);
  EXPECT_EQ(r.resilience, 1);
  EXPECT_EQ(SolverKindName(r.solver), SolverKindName(SolverKind::kExact));
}

TEST(Dispatcher, DominationNormalizationPreservesValue) {
  // Example 17 q2: A dominates R and S; answers must match the exact
  // solver on the raw query.
  Query q = MustParseQuery("R(x,y), A(y), R(z,y), S(y,z)");
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    Database db = RandomDatabase(q, 4, 8, rng);
    ResilienceResult fast = ComputeResilience(q, db);
    ResilienceResult exact = ComputeResilienceExact(q, db);
    ASSERT_EQ(fast.unbreakable, exact.unbreakable);
    if (!exact.unbreakable) {
      EXPECT_EQ(fast.resilience, exact.resilience) << "trial " << trial;
    }
  }
}

TEST(Dispatcher, MinimizationPreservesValue) {
  // Example 22's non-minimal query is equivalent to R(x,y).
  Query q = MustParseQuery("R(x,y), R(z,y), R(z,w), R(x,w)");
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    Database db = RandomDatabase(q, 4, 6, rng);
    ResilienceResult fast = ComputeResilience(q, db);
    ResilienceResult exact = ComputeResilienceExact(q, db);
    EXPECT_EQ(fast.resilience, exact.resilience) << "trial " << trial;
  }
}

TEST(VerifyContingency, RestoresDatabaseWithDuplicateTupleIds) {
  // Regression: with a duplicate id the second occurrence records the
  // tuple as already-inactive; a forward-order restore would apply that
  // state last and leave the tuple deactivated after the call.
  Query q = MustParseQuery("R(x,y)");
  Database db;
  TupleId t = db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  TupleId u = db.AddTuple("R", {db.Intern("c"), db.Intern("d")});
  std::vector<TupleId> duplicated = {t, t, u, t};
  EXPECT_TRUE(VerifyContingency(q, db, duplicated));
  EXPECT_TRUE(db.IsActive(t));
  EXPECT_TRUE(db.IsActive(u));
  EXPECT_EQ(db.NumActiveTuples(), 2);
}

TEST(Dispatcher, PseudoLinearSjFreeFallsBackExactly) {
  // q_rats is PTIME but cyclic in the hypergraph (not linear), so the
  // dispatcher falls back to the exact solver with the fallback label.
  Query q = CatalogQuery("q_rats");
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    Database db = RandomDatabase(q, 4, 10, rng);
    if (!QueryHolds(q, db)) continue;
    ResilienceResult r = ComputeResilience(q, db);
    if (r.unbreakable || r.resilience == 0) continue;
    EXPECT_EQ(SolverKindName(r.solver),
              SolverKindName(SolverKind::kExactFallback));
    return;
  }
  GTEST_SKIP() << "no satisfying database generated";
}

}  // namespace
}  // namespace rescq
