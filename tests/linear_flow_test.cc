// Dedicated tests for the linear-query flow solver: agreement with the
// exact oracle across a family of linear queries (sj-free, confluence,
// REP), exogenous handling, and the Lemma 55 no-duplicate-cut property
// that makes the confluence case sound, plus the shared cut step's own
// checks (flow_cut.h). The tuple-built network is held to the
// witness-built reference (legacy_linear_flow.h): same unbreakable flag,
// rho and contingency set, dangling tuples included.

#include <gtest/gtest.h>

#include <set>

#include "complexity/catalog.h"
#include "cq/parser.h"
#include "db/witness.h"
#include "legacy_linear_flow.h"
#include "resilience/conf3_solver.h"
#include "resilience/engine.h"
#include "resilience/exact_solver.h"
#include "resilience/flow_cut.h"
#include "resilience/linear_flow_solver.h"
#include "resilience/rep_solver.h"
#include "resilience/solver.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace rescq {
namespace {

Database RandomDatabase(const Query& q, int domain, int tuples, Rng& rng) {
  Database db;
  std::vector<Value> dom;
  for (int i = 0; i < domain; ++i) dom.push_back(db.InternIndexed("c", i));
  for (const std::string& rel : q.RelationNames()) {
    int arity = q.RelationArity(rel);
    for (int t = 0; t < tuples; ++t) {
      std::vector<Value> row;
      for (int c = 0; c < arity; ++c) {
        row.push_back(dom[rng.Below(static_cast<uint64_t>(domain))]);
      }
      db.AddTuple(rel, row);
    }
  }
  return db;
}

// Asserts that `got` is the witness-built reference's answer: same
// unbreakable flag, rho and contingency set.
void ExpectSameAsReference(const ResilienceResult& got,
                           const ResilienceResult& want,
                           const std::string& context) {
  ASSERT_EQ(got.unbreakable, want.unbreakable) << context;
  if (want.unbreakable) return;
  EXPECT_EQ(got.resilience, want.resilience) << context;
  EXPECT_EQ(got.contingency, want.contingency) << context;
}

// Linear queries the flow solver must handle exactly. Mixed arities,
// exogenous atoms in every position, and the confluence pattern.
class LinearFlowAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(LinearFlowAgreement, MatchesExactOracle) {
  Query q = MustParseQuery(GetParam());
  Rng rng(std::hash<std::string>()(GetParam()) ^ 0x11);
  for (int trial = 0; trial < 25; ++trial) {
    Database db = RandomDatabase(q, 3 + static_cast<int>(rng.Below(4)),
                                 4 + static_cast<int>(rng.Below(12)), rng);
    ResilienceResult flow = SolveLinearFlow(q, db);
    ResilienceResult exact = ComputeResilienceExact(q, db);
    ASSERT_EQ(flow.unbreakable, exact.unbreakable) << "trial " << trial;
    if (exact.unbreakable) continue;
    EXPECT_EQ(flow.resilience, exact.resilience) << "trial " << trial;
    EXPECT_TRUE(VerifyContingency(q, db, flow.contingency))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, LinearFlowAgreement,
    ::testing::Values(
        // sj-free linear chains of various lengths and arities
        "A(x), R(x,y), B(y)",                       //
        "A(x), R(x,y), S(y,z), C(z)",               //
        "A(x), R(x,y), S(y,z), T(z,w), D(w)",       //
        "A(x), W(x,y,z), S(y,z)",                   // ternary middle
        "R(x,y), S(y,z)",                           // no unary anchors
        // exogenous atoms at the ends and in the middle
        "A^x(x), R(x,y), B(y)",                     //
        "A(x), R^x(x,y), B(y)",                     //
        "A(x), R(x,y), S^x(y,z), T(z,w)",           //
        // the confluence family (Propositions 12 and 31)
        "A(x), R(x,y), R(z,y), C(z)",               //
        "A(x), R(x,y), R(z,y)",                     //
        "U(v,x), R(x,y), R(z,y), C(z)",             // binary left anchor
        "A(x), R(x,y), R(z,y), G^x(z,w), C(w)",     // exo tail
        // interface widths other than one and two
        "A(x), W(x,y,z), V(x,y,z), B(z)",           // three variables
        "A(x), B(y)"),                              // empty interface
    [](const ::testing::TestParamInfo<const char*>& info) {
      return "q" + std::to_string(info.index);
    });

TEST_P(LinearFlowAgreement, MatchesWitnessBuiltReference) {
  Query q = MustParseQuery(GetParam());
  Rng rng(std::hash<std::string>()(GetParam()) ^ 0x5EED);
  for (int trial = 0; trial < 40; ++trial) {
    // Sparse draws leave many dangling tuples, dense ones many witnesses.
    Database db = RandomDatabase(q, 3 + static_cast<int>(rng.Below(6)),
                                 2 + static_cast<int>(rng.Below(20)), rng);
    ResilienceResult flow = SolveLinearFlow(q, db);
    std::optional<ResilienceResult> ref = LegacySolveLinearFlow(q, db);
    ASSERT_TRUE(ref.has_value());
    ExpectSameAsReference(flow, *ref, "trial " + std::to_string(trial));
  }
}

TEST(LinearFlow, RepOverrideMatchesWitnessBuiltReference) {
  for (const char* text :
       {"R(x,x), R(x,y), A(y)", "B(x), R(x,x), R(x,y), A(y)"}) {
    Query q = MustParseQuery(text);
    Rng rng(std::hash<std::string>()(text) ^ 0x5EED);
    for (int trial = 0; trial < 30; ++trial) {
      Database db = RandomDatabase(q, 4, 2 + static_cast<int>(rng.Below(12)),
                                   rng);
      int r_rel = db.RelationId("R");
      ResilienceResult rep = SolveRepFlow(q, db);
      std::optional<ResilienceResult> ref = LegacySolveLinearFlow(
          q, db, [r_rel](const Database& d, TupleId t) {
            return t.relation == r_rel && d.Row(t)[0] != d.Row(t)[1];
          });
      ASSERT_TRUE(ref.has_value());
      ExpectSameAsReference(rep, *ref,
                            std::string(text) + " trial " +
                                std::to_string(trial));
    }
  }
}

TEST(LinearFlow, ForcedThenFlowMatchesWitnessBuiltReference) {
  Query q = CatalogQuery("q_TS3conf");
  Rng rng(0x7153);
  int forced_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Database db = RandomDatabase(q, 3 + static_cast<int>(rng.Below(3)),
                                 3 + static_cast<int>(rng.Below(8)), rng);
    ResilienceResult got = SolveForcedThenFlow(q, db);
    // The reference: delete the singleton-witness tuples, run the
    // witness-built flow on the rest.
    WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
    ResilienceResult want;
    want.unbreakable = family.unbreakable;
    if (!family.unbreakable && family.size() > 0) {
      std::set<TupleId> forced;
      for (size_t i = 0; i < family.size(); ++i) {
        if (family.sets[i].len == 1) forced.insert(*family.begin(i));
      }
      forced_seen += static_cast<int>(forced.size());
      Database residual = db;
      for (TupleId t : forced) residual.SetActive(t, false);
      std::optional<ResilienceResult> ref =
          LegacySolveLinearFlow(q, residual);
      ASSERT_TRUE(ref.has_value());
      ASSERT_FALSE(ref->unbreakable);
      want.resilience = static_cast<int>(forced.size()) + ref->resilience;
      want.contingency.assign(forced.begin(), forced.end());
      want.contingency.insert(want.contingency.end(),
                              ref->contingency.begin(),
                              ref->contingency.end());
      std::sort(want.contingency.begin(), want.contingency.end());
    }
    ExpectSameAsReference(got, want, "trial " + std::to_string(trial));
  }
  EXPECT_GT(forced_seen, 0) << "no draw exercised the forced tuples";
}

TEST(LinearFlow, DanglingTuplesAtEveryPositionAreNeverCut) {
  // Two witnesses A(a_i), R(a_i,b), S(b,c), C(c) share S(b,c) and C(c).
  // Around them, every position holds a tuple whose left interface value
  // no earlier tuple reaches and one whose right value leads nowhere, in
  // both directions of the chain (the linear order may run either way).
  Query q = MustParseQuery("A(x), R(x,y), S(y,z), C(z)");
  Database db;
  auto v = [&](const char* name) { return db.Intern(name); };
  std::set<TupleId> dangling;
  for (const char* a : {"a0", "a1"}) {
    db.AddTuple("A", {v(a)});
    db.AddTuple("R", {v(a), v("b")});
  }
  db.AddTuple("S", {v("b"), v("c")});
  db.AddTuple("C", {v("c")});
  for (auto [rel, values] :
       std::vector<std::pair<const char*, std::vector<const char*>>>{
           {"A", {"d"}},          // no R leaves d
           {"R", {"a0", "f"}},    // no S leaves f
           {"R", {"e", "b"}},     // no A reaches e
           {"S", {"b", "h"}},     // no C at h
           {"S", {"g", "c"}},     // no R reaches g
           {"C", {"k"}}}) {       // no S reaches k
    std::vector<Value> row;
    for (const char* name : values) row.push_back(v(name));
    dangling.insert(db.AddTuple(rel, row));
  }
  ResilienceResult flow = SolveLinearFlow(q, db);
  std::optional<ResilienceResult> ref = LegacySolveLinearFlow(q, db);
  ASSERT_TRUE(ref.has_value());
  ExpectSameAsReference(flow, *ref, "dangling");
  EXPECT_EQ(flow.resilience, 1);
  EXPECT_EQ(flow.resilience, ComputeResilienceExact(q, db).resilience);
  for (TupleId t : flow.contingency) {
    EXPECT_EQ(dangling.count(t), 0u) << db.TupleToString(t);
  }
  EXPECT_TRUE(VerifyContingency(q, db, flow.contingency));

  // Exogenous atoms around an endogenous middle: each witness has one
  // deletable tuple R(x_i,y_i), and the reversed R(y_i,x_i) dangle at
  // the same position, reachable from neither end.
  Query exo = MustParseQuery("A^x(x), R(x,y), S^x(y,z), C^x(z)");
  Database exo_db;
  for (int i = 0; i < 3; ++i) {
    Value x = exo_db.InternIndexed("x", i);
    Value y = exo_db.InternIndexed("y", i);
    exo_db.AddTuple("A", {x});
    exo_db.AddTuple("R", {x, y});
    exo_db.AddTuple("R", {y, x});  // dangling: no A(y_i)
    exo_db.AddTuple("S", {y, x});
    exo_db.AddTuple("C", {x});
  }
  flow = SolveLinearFlow(exo, exo_db);
  ref = LegacySolveLinearFlow(exo, exo_db);
  ASSERT_TRUE(ref.has_value());
  ExpectSameAsReference(flow, *ref, "exogenous");
  EXPECT_FALSE(flow.unbreakable);
  EXPECT_EQ(flow.resilience, 3);
}

TEST(LinearFlow, SelfJoinTupleAtTwoPositionsIsCutOnce) {
  // With x = z = a, the one tuple R(a,b) matches both R-atoms of the
  // confluence: the network holds it as two edges in series, and the cut
  // takes one copy (Lemma 55).
  Query q = MustParseQuery("A^x(x), R(x,y), R(z,y), C^x(z)");
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b"), e = db.Intern("e");
  db.AddTuple("A", {a});
  db.AddTuple("C", {a});
  TupleId ab = db.AddTuple("R", {a, b});
  db.AddTuple("R", {e, b});  // dangling: no A(e), no C(e)
  ResilienceResult flow = SolveLinearFlow(q, db);
  std::optional<ResilienceResult> ref = LegacySolveLinearFlow(q, db);
  ASSERT_TRUE(ref.has_value());
  ExpectSameAsReference(flow, *ref, "self-join");
  EXPECT_FALSE(flow.unbreakable);
  EXPECT_EQ(flow.resilience, 1);
  EXPECT_EQ(flow.contingency, (std::vector<TupleId>{ab}));

  // Once C(e) exists, a second witness runs through R(a,b) at the first
  // position and R(e,b) at the second: one deletion of R(a,b) still
  // kills both witnesses.
  db.AddTuple("C", {e});
  flow = SolveLinearFlow(q, db);
  ref = LegacySolveLinearFlow(q, db);
  ASSERT_TRUE(ref.has_value());
  ExpectSameAsReference(flow, *ref, "self-join, two witnesses");
  EXPECT_EQ(flow.resilience, ComputeResilienceExact(q, db).resilience);
  EXPECT_TRUE(VerifyContingency(q, db, flow.contingency));
}

TEST(LinearFlow, DominationHeavyAt400ScalesWithTuples) {
  // 21,252 tuples and about a million witnesses: the network is built
  // from the tuples, so this stays fast in an unoptimized build.
  Query q = CatalogQuery("q_ACconf");
  Database db = GenerateDominationHeavy({400, 0.5, 3});
  ASSERT_EQ(db.NumActiveTuples(), 21252);
  ResilienceEngine engine;
  std::shared_ptr<const ResiliencePlan> plan = engine.Plan(q);
  ASSERT_EQ(plan->components.size(), 1u);
  EXPECT_EQ(plan->components[0].solver, SolverKind::kLinearFlow);
  ResilienceResult r = engine.Solve(plan, db).result;
  EXPECT_FALSE(r.unbreakable);
  EXPECT_EQ(r.solver, SolverKind::kLinearFlow);
  EXPECT_EQ(r.resilience, 400);
  EXPECT_TRUE(VerifyContingency(q, db, r.contingency));
}

// The cut step's own checks, on hand-built networks no construction
// builds. Lemma 55 keeps two copies of one tuple out of every minimal
// cut, so SelfJoinTupleAtTwoPositionsIsCutOnce cuts one copy and never
// reaches them.
TEST(FlowCutDeathTest, TwoCutCopiesOfOneTupleFailTheLemma55Check) {
  // Two parallel capacity-1 edges name one tuple: the flow is 2 but the
  // cut deletes one tuple.
  MaxFlow flow(2);
  const int u = flow.AddNode();
  AddTupleEdge(flow, 0, u, TupleId{0, 7});
  AddTupleEdge(flow, 0, u, TupleId{0, 7});
  flow.AddEdge(u, 1, kInfCapacity);
  EXPECT_DEATH(SolveMinCut(flow, SolverKind::kLinearFlow),
               "RESCQ_CHECK failed");
}

TEST(FlowCutDeathTest, CutUntaggedEdgeFails) {
  MaxFlow flow(2);
  flow.AddEdge(0, 1, 1);  // finite but names no tuple
  EXPECT_DEATH(SolveMinCut(flow, SolverKind::kLinearFlow),
               "undeletable edge");
}

TEST(LinearFlow, RepOverrideAgreesOnZ3Family) {
  for (const char* text :
       {"R(x,x), R(x,y), A(y)", "B(x), R(x,x), R(x,y), A(y)"}) {
    Query q = MustParseQuery(text);
    Rng rng(std::hash<std::string>()(text));
    for (int trial = 0; trial < 20; ++trial) {
      Database db = RandomDatabase(q, 4, 9, rng);
      ResilienceResult rep = SolveRepFlow(q, db);
      ResilienceResult exact = ComputeResilienceExact(q, db);
      ASSERT_EQ(rep.unbreakable, exact.unbreakable);
      if (!exact.unbreakable) {
        EXPECT_EQ(rep.resilience, exact.resilience)
            << text << " trial " << trial;
      }
    }
  }
}

TEST(LinearFlow, CutNeverContainsExogenousTuples) {
  Query q = MustParseQuery("A(x), R^x(x,y), B(y)");
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    Database db = RandomDatabase(q, 4, 8, rng);
    ResilienceResult r = SolveLinearFlow(q, db);
    if (r.unbreakable) continue;
    int r_rel = db.RelationId("R");
    for (TupleId t : r.contingency) EXPECT_NE(t.relation, r_rel);
  }
}

TEST(LinearFlow, SharedMiddleValueForcesBottleneckCut) {
  // All chains pass through R(m, m'); the min cut is that single tuple.
  Database db;
  Value m = db.Intern("m"), m2 = db.Intern("m'");
  for (int i = 0; i < 4; ++i) {
    db.AddTuple("A", {db.InternIndexed("a", i)});
    db.AddTuple("L", {db.InternIndexed("a", i), m});
    db.AddTuple("B", {db.InternIndexed("b", i)});
    db.AddTuple("T", {m2, db.InternIndexed("b", i)});
  }
  TupleId mid = db.AddTuple("R", {m, m2});
  Query q = MustParseQuery("A(x), L(x,u), R(u,v), T(v,y), B(y)");
  ResilienceResult r = SolveLinearFlow(q, db);
  EXPECT_EQ(r.resilience, 1);
  EXPECT_EQ(r.contingency, (std::vector<TupleId>{mid}));
}

TEST(LinearFlow, DispatchedSolverHandlesLargeInstancesFast) {
  // 2000 tuples per relation: far beyond the exact oracle's comfort zone.
  Query q = MustParseQuery("A(x), R(x,y), R(z,y), C(z)");
  Rng rng(1234);
  Database db = RandomDatabase(q, 60, 2000, rng);
  ResilienceResult r = ComputeResilience(q, db);
  EXPECT_FALSE(r.unbreakable);
  EXPECT_TRUE(VerifyContingency(q, db, r.contingency));
  EXPECT_EQ(SolverKindName(r.solver),
            SolverKindName(SolverKind::kLinearFlow));
}

}  // namespace
}  // namespace rescq
