#include <gtest/gtest.h>

#include "complexity/catalog.h"
#include "cq/parser.h"
#include "ijp/examples.h"
#include "ijp/ijp.h"
#include "ijp/ijp_search.h"
#include "ijp/ijp_vc_reduction.h"
#include "reductions/vertex_cover.h"
#include "resilience/exact_solver.h"

namespace rescq {
namespace {

// --- The four worked examples of Appendix C.1 ---------------------------------

TEST(IjpChecker, Example58Qvc) {
  IjpExample ex = BuildIjpExample58();
  IjpCheckResult r = CheckIjp(ex.query, ex.db, ex.endpoint_a, ex.endpoint_b);
  EXPECT_TRUE(r.is_ijp) << r.explanation;
  EXPECT_EQ(r.resilience, ex.expected_resilience);
}

TEST(IjpChecker, Example59Triangle) {
  IjpExample ex = BuildIjpExample59();
  IjpCheckResult r = CheckIjp(ex.query, ex.db, ex.endpoint_a, ex.endpoint_b);
  EXPECT_TRUE(r.is_ijp) << r.explanation;
  EXPECT_EQ(r.resilience, 2);
}

TEST(IjpChecker, Example60Z5Repaired) {
  IjpExample ex = BuildIjpExample60();
  IjpCheckResult r = CheckIjp(ex.query, ex.db, ex.endpoint_a, ex.endpoint_b);
  EXPECT_TRUE(r.is_ijp) << r.explanation;
  EXPECT_EQ(r.resilience, 4);
}

TEST(IjpChecker, Example60AsPrintedHasTheErratum) {
  // The paper's own 21-tuple database: the undrawn witness (5,2,3)
  // breaks the or-property on the A(13) side.
  IjpExample ex = BuildIjpExample60AsPrinted();
  // Base resilience still matches the paper's claim...
  ResilienceResult base = ComputeResilienceExact(ex.query, ex.db);
  EXPECT_EQ(base.resilience, 4);
  // ...but condition 5 fails.
  IjpCheckResult r = CheckIjp(ex.query, ex.db, ex.endpoint_a, ex.endpoint_b);
  EXPECT_FALSE(r.is_ijp);
  EXPECT_EQ(r.failed_condition, 5) << r.explanation;
}

TEST(IjpChecker, Example61FailsCondition4) {
  // The paper's deliberate non-example: condition 4 requires B^x(1) and
  // A^x(3), which are absent.
  IjpExample ex = BuildIjpExample61();
  IjpCheckResult r = CheckIjp(ex.query, ex.db, ex.endpoint_a, ex.endpoint_b);
  EXPECT_FALSE(r.is_ijp);
  EXPECT_EQ(r.failed_condition, 4) << r.explanation;
}

TEST(IjpChecker, Example61RepairedFailsOrProperty) {
  // Adding the two missing exogenous tuples satisfies condition 4 but, as
  // the paper observes, then "condition 2 and 5 are not true anymore".
  IjpExample ex = BuildIjpExample61();
  ex.db.AddTuple("B", {ex.db.Intern("n_1")});
  ex.db.AddTuple("A", {ex.db.Intern("n_3")});
  IjpCheckResult r = CheckIjp(ex.query, ex.db, ex.endpoint_a, ex.endpoint_b);
  EXPECT_FALSE(r.is_ijp);
  EXPECT_NE(r.failed_condition, 4);
}

// --- Condition-level rejections ------------------------------------------------

TEST(IjpChecker, Condition1ComparableEndpoints) {
  // Permutation pair R(1,2), R(2,1): equal constant sets.
  Database db;
  Value a = db.Intern("1"), b = db.Intern("2");
  TupleId t1 = db.AddTuple("R", {a, b});
  TupleId t2 = db.AddTuple("R", {b, a});
  Query q = MustParseQuery("R(x,y), R(y,x)");
  IjpCheckResult r = CheckIjp(q, db, t1, t2);
  EXPECT_FALSE(r.is_ijp);
  EXPECT_EQ(r.failed_condition, 1);
}

TEST(IjpChecker, Condition2MultipleWitnesses) {
  // qvc where endpoint R(1) joins two edges.
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  TupleId r1 = db.AddTuple("R", {v1});
  db.AddTuple("R", {v2});
  TupleId r3 = db.AddTuple("R", {v3});
  db.AddTuple("S", {v1, v2});
  db.AddTuple("S", {v1, v3});
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  IjpCheckResult r = CheckIjp(q, db, r1, r3);
  EXPECT_FALSE(r.is_ijp);
  EXPECT_EQ(r.failed_condition, 2);
}

TEST(IjpChecker, Condition5NoOrProperty) {
  // Two disjoint qvc witnesses: removing an endpoint does not reduce the
  // other witness's cost, so removing *both* leaves resilience c-2... but
  // removing one leaves c-1; removing both leaves c-2 != c-1.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  TupleId r1 = db.AddTuple("R", {v("1")});
  db.AddTuple("R", {v("2")});
  db.AddTuple("S", {v("1"), v("2")});
  TupleId r3 = db.AddTuple("R", {v("3")});
  db.AddTuple("R", {v("4")});
  db.AddTuple("S", {v("3"), v("4")});
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  IjpCheckResult r = CheckIjp(q, db, r1, r3);
  EXPECT_FALSE(r.is_ijp);
  EXPECT_EQ(r.failed_condition, 5);
}

// --- Automated search (Appendix C.2) --------------------------------------------

TEST(IjpSearch, FindsQvcIjpWithOneJoin) {
  IjpSearchOptions options;
  options.max_joins = 1;
  IjpSearchResult r = SearchForIjp(CatalogQuery("q_vc"), options);
  ASSERT_TRUE(r.found) << r.description;
  EXPECT_EQ(r.joins, 1);
  // Verify the found database independently.
  IjpCheckResult check = CheckIjp(CatalogQuery("q_vc"), r.db, r.endpoint_a,
                                  r.endpoint_b);
  EXPECT_TRUE(check.is_ijp);
}

TEST(IjpSearch, FindsQchainIjpWithOneJoin) {
  IjpSearchOptions options;
  options.max_joins = 1;
  IjpSearchResult r = SearchForIjp(CatalogQuery("q_chain"), options);
  ASSERT_TRUE(r.found) << r.description;
  EXPECT_EQ(r.resilience, 1);
}

TEST(IjpSearch, FindsTriangleIjpWithThreeJoins) {
  // Example 62: three joins, nine constants, Bell(9) = 21147 partitions.
  IjpSearchOptions options;
  options.min_joins = 3;
  options.max_joins = 3;
  IjpSearchResult r = SearchForIjp(CatalogQuery("q_triangle"), options);
  ASSERT_TRUE(r.found) << r.description;
  EXPECT_EQ(r.joins, 3);
  EXPECT_EQ(r.resilience, 2);
  IjpCheckResult check = CheckIjp(CatalogQuery("q_triangle"), r.db,
                                  r.endpoint_a, r.endpoint_b);
  EXPECT_TRUE(check.is_ijp);
}

// Conjecture 49's two directions, swept over named queries: hard queries
// yield an IJP within three joins; PTIME queries yield none.
struct SearchCase {
  const char* name;
  bool expect_found;
};

class IjpSearchSweep : public ::testing::TestWithParam<SearchCase> {};

TEST_P(IjpSearchSweep, HardQueriesHaveIjpsEasyOnesDoNot) {
  const SearchCase& sc = GetParam();
  IjpSearchOptions options;
  options.max_joins = 3;
  IjpSearchResult r = SearchForIjp(CatalogQuery(sc.name), options);
  EXPECT_EQ(r.found, sc.expect_found) << r.description;
  if (r.found) {
    IjpCheckResult check =
        CheckIjp(CatalogQuery(sc.name), r.db, r.endpoint_a, r.endpoint_b);
    EXPECT_TRUE(check.is_ijp) << check.explanation;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paper, IjpSearchSweep,
    ::testing::Values(SearchCase{"q_achain", true},   // Lemma 53
                      SearchCase{"q_bchain", true},   // Lemma 52
                      SearchCase{"q_acchain", true},  // Lemma 54
                      SearchCase{"cf_p", true},       // Prop 32 (exogenous!)
                      SearchCase{"z1", true},         // Thm 28
                      SearchCase{"q_ABperm", true},   // Prop 34
                      SearchCase{"q_ACconf", false},  // Prop 12 (PTIME)
                      SearchCase{"z3", false}),       // Prop 36 (PTIME)
    [](const ::testing::TestParamInfo<SearchCase>& info) {
      return std::string(info.param.name);
    });

TEST(IjpSearch, EasyQueryHasNoSmallIjp) {
  // q_perm is PTIME; the search should come up empty (Conjecture 49's
  // converse direction).
  IjpSearchOptions options;
  options.max_joins = 2;
  IjpSearchResult r = SearchForIjp(CatalogQuery("q_perm"), options);
  EXPECT_FALSE(r.found) << r.description;
}

TEST(IjpSearch, EasyApermHasNoSmallIjp) {
  IjpSearchOptions options;
  options.max_joins = 2;
  IjpSearchResult r = SearchForIjp(CatalogQuery("q_Aperm"), options);
  EXPECT_FALSE(r.found) << r.description;
}

// --- The generalized VC reduction (Conjecture 49 / Figure 8) ---------------------

// Orients a graph so every vertex is only ever a left or a right
// endpoint (valid for bipartite-style instances used here).
Graph Star(int leaves) {
  Graph g;
  g.num_vertices = leaves + 1;
  for (int i = 1; i <= leaves; ++i) g.edges.emplace_back(0, i);
  return g;
}

Graph EvenCycleOriented(int n) {
  // Even cycle with edges oriented from even to odd vertices.
  Graph g;
  g.num_vertices = n;
  for (int i = 0; i < n; ++i) {
    int j = (i + 1) % n;
    int u = i % 2 == 0 ? i : j;
    int v = i % 2 == 0 ? j : i;
    g.edges.emplace_back(u, v);
  }
  return g;
}

class IjpVcComposition : public ::testing::TestWithParam<const char*> {};

TEST_P(IjpVcComposition, ResilienceEqualsVcPlusEdgesTimesCMinus1) {
  IjpExample ex;
  std::string name = GetParam();
  if (name == "q_vc") {
    ex = BuildIjpExample58();
  } else if (name == "q_triangle") {
    ex = BuildIjpExample59();
  } else {
    ex = BuildIjpExample60();
  }
  // Endpoint constant sets must be disjoint for the construction;
  // Example 59/60 endpoints are disjoint, Example 58's too.
  for (const Graph& g : {Star(3), Star(5), EvenCycleOriented(4),
                         EvenCycleOriented(6)}) {
    std::optional<IjpVcInstance> inst =
        BuildIjpVcInstance(ex.query, ex.db, ex.endpoint_a, ex.endpoint_b,
                           ex.expected_resilience, g);
    if (!inst.has_value()) {
      // Star orientation: center is always left; cycles alternate. Both
      // are role-consistent, so this must not happen.
      FAIL() << "construction rejected a role-consistent orientation";
    }
    ResilienceResult r = ComputeResilienceExact(inst->query, inst->db);
    EXPECT_EQ(r.resilience, inst->expected_resilience)
        << name << " on graph with " << g.edges.size() << " edges";
  }
}

INSTANTIATE_TEST_SUITE_P(Paper, IjpVcComposition,
                         ::testing::Values("q_vc", "q_triangle", "z5"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(IjpVcReduction, RejectsRoleInconsistentOrientation) {
  IjpExample ex = BuildIjpExample59();
  Graph path;  // 0 -> 1, 1 -> 2: vertex 1 plays both roles
  path.num_vertices = 3;
  path.edges = {{0, 1}, {1, 2}};
  EXPECT_FALSE(BuildIjpVcInstance(ex.query, ex.db, ex.endpoint_a,
                                  ex.endpoint_b, 2, path)
                   .has_value());
}

TEST(IjpVcReduction, RejectsSharedEndpointConstants) {
  // q_chain IJP R(1,2),R(2,3): endpoints share constant 2.
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  TupleId a = db.AddTuple("R", {v1, v2});
  TupleId b = db.AddTuple("R", {v2, v3});
  Query q = MustParseQuery("R(x,y), R(y,z)");
  EXPECT_FALSE(BuildIjpVcInstance(q, db, a, b, 1, Star(2)).has_value());
}

}  // namespace
}  // namespace rescq
