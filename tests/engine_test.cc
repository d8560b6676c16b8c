// ResilienceEngine: plan-once/solve-many API, the solver table, and
// the plan cache — including the engine-vs-legacy equivalence sweep
// over the whole paper catalog and every workload scenario.

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "complexity/catalog.h"
#include "cq/parser.h"
#include "resilience/engine.h"
#include "resilience/exact_solver.h"
#include "resilience/registry.h"
#include "resilience/solver.h"
#include "workload/batch.h"
#include "workload/generators.h"
#include "workload/report.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

// --- Registry self-check: report strings are a compatibility surface --------

TEST(Registry, CoversEverySolverKindWithUniqueStableNames) {
  std::set<std::string> names;
  for (size_t i = 0; i < kNumSolverKinds; ++i) {
    const SolverRow& row = kSolverTable[i];
    EXPECT_EQ(static_cast<size_t>(row.kind), i);
    std::string name = SolverKindName(row.kind);
    EXPECT_EQ(name, row.name);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_STRNE(row.citation, "") << name;
    EXPECT_STRNE(row.description, "") << name;
    // A construction both applies and runs; an exact row does neither.
    EXPECT_EQ(row.applies == nullptr, row.run == nullptr) << name;
  }
}

TEST(Registry, FallbacksAreNeverProbeSelected) {
  for (SolverKind kind : {SolverKind::kExact, SolverKind::kExactFallback}) {
    EXPECT_EQ(SolverRowOf(kind).applies, nullptr) << SolverKindName(kind);
    EXPECT_EQ(SolverRowOf(kind).run, nullptr) << SolverKindName(kind);
  }
  for (const CatalogEntry& entry : PaperCatalog()) {
    Query q = MustParseQuery(entry.text);
    Classification c = ClassifyResilience(q);
    for (const SolverRow& row : kSolverTable) {
      if (row.applies != nullptr && row.applies(q, c)) {
        EXPECT_NE(row.run, nullptr) << entry.name;
      }
    }
  }
}

// Every component of every catalog and scenario query: at most one
// construction row accepts it, the plan names that construction (or
// an exact solver when none does), and solving runs the planned solver.
void ExpectPlannedSolverRuns(ResilienceEngine& engine, const Query& q,
                             const Database& db, const std::string& label) {
  std::shared_ptr<const ResiliencePlan> plan = engine.Plan(q);
  std::set<SolverKind> planned;
  for (const ComponentPlan& cp : plan->components) {
    if (cp.no_endogenous) continue;
    planned.insert(cp.solver);
    int accepted = 0;
    for (const SolverRow& row : kSolverTable) {
      if (row.applies != nullptr && row.applies(cp.query, cp.classification)) {
        ++accepted;
        EXPECT_STREQ(row.name, SolverKindName(cp.solver)) << label;
      }
    }
    EXPECT_LE(accepted, 1) << label;
    if (accepted == 0) {
      SolverKind exact = cp.classification.complexity == Complexity::kPTime
                             ? SolverKind::kExactFallback
                             : SolverKind::kExact;
      EXPECT_STREQ(SolverKindName(cp.solver), SolverKindName(exact)) << label;
    }
  }
  SolveOutcome out = engine.Solve(plan, db);
  ASSERT_TRUE(out.error.empty()) << label << ": " << out.error;
  if (out.result.unbreakable || out.result.resilience == 0) return;
  EXPECT_EQ(planned.count(out.result.solver), 1u)
      << label << " ran " << SolverKindName(out.result.solver);
}

TEST(Registry, PlannedSolverIsTheOneThatRuns) {
  ResilienceEngine engine;
  for (const CatalogEntry& entry : PaperCatalog()) {
    Query q = MustParseQuery(entry.text);
    for (uint64_t seed : {1u, 2u}) {
      ExpectPlannedSolverRuns(engine, q, GenerateUniform(q, {4, 0.5, seed}),
                              entry.name + " seed " + std::to_string(seed));
    }
  }
  for (const Scenario& scenario : ScenarioCatalog()) {
    Query q = MustParseQuery(scenario.query);
    for (uint64_t seed : {1u, 2u}) {
      ExpectPlannedSolverRuns(engine, q, scenario.generate({6, 0.5, seed}),
                              scenario.name + " seed " + std::to_string(seed));
    }
  }
}

// --- Engine-vs-legacy equivalence sweep --------------------------------------

void ExpectMatchesReference(ResilienceEngine& engine, const Query& q,
                            const Database& db, const std::string& label) {
  SolveOutcome out = engine.Solve(q, db);
  ASSERT_TRUE(out.error.empty()) << label << ": " << out.error;
  ResilienceResult oracle = ComputeResilienceReference(q, db);
  ASSERT_EQ(out.result.unbreakable, oracle.unbreakable) << label;
  if (oracle.unbreakable) return;
  EXPECT_EQ(out.result.resilience, oracle.resilience)
      << label << " solver " << SolverKindName(out.result.solver);
  Database copy = db;
  EXPECT_TRUE(VerifyContingency(q, copy, out.result.contingency)) << label;
}

class EngineCatalogEquivalence
    : public ::testing::TestWithParam<CatalogEntry> {};

TEST_P(EngineCatalogEquivalence, SolveMatchesReferenceOnUniformInstances) {
  const CatalogEntry& entry = GetParam();
  Query q = MustParseQuery(entry.text);
  ResilienceEngine engine;
  for (int size : {3, 5}) {
    for (uint64_t seed : {1u, 2u}) {
      Database db = GenerateUniform(q, {size, 0.5, seed});
      ExpectMatchesReference(
          engine, q, db,
          entry.name + " size " + std::to_string(size) + " seed " +
              std::to_string(seed));
    }
  }
  // The second size/seed rounds must have reused the memoized plan.
  EXPECT_EQ(engine.plan_cache_stats().misses, 1u);
  EXPECT_EQ(engine.plan_cache_stats().hits, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, EngineCatalogEquivalence, ::testing::ValuesIn(PaperCatalog()),
    [](const ::testing::TestParamInfo<CatalogEntry>& info) {
      return info.param.name;
    });

TEST(Engine, SolveMatchesReferenceOnEveryScenario) {
  ResilienceEngine engine;
  for (const Scenario& scenario : ScenarioCatalog()) {
    Query q = MustParseQuery(scenario.query);
    for (int size : {4, 6}) {
      for (uint64_t seed : {1u, 2u}) {
        Database db = scenario.generate({size, 0.5, seed});
        ExpectMatchesReference(
            engine, q, db,
            scenario.name + " size " + std::to_string(size) + " seed " +
                std::to_string(seed));
      }
    }
  }
}

TEST(Engine, DisconnectedQueryTakesComponentMinimum) {
  // Two components: the permutation pair and an independent S-edge;
  // Lemma 14 takes the cheaper side.
  Query q = MustParseQuery("R(x,y), R(y,x), S(u,v)");
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  db.AddTuple("R", {db.Intern("b"), db.Intern("a")});
  db.AddTuple("S", {db.Intern("u"), db.Intern("v")});
  ResilienceEngine engine;
  SolveOutcome out = engine.Solve(q, db);
  EXPECT_EQ(out.plan->components.size(), 2u);
  EXPECT_FALSE(out.result.unbreakable);
  EXPECT_EQ(out.result.resilience, 1);
  EXPECT_EQ(out.result.resilience,
            ComputeResilienceReference(q, db).resilience);
}

TEST(Engine, FalseConstructionComponentSkipsTheExactSearch) {
  // q_ACconf (linear-flow) next to q_vc (exact). The exact component
  // holds, the construction finds no witness (no C tuple): the outcome
  // is the default false-query one, and no exact search runs.
  Query q = MustParseQuery("A(x), R(x,y), R(z,y), C(z), P(u), S(u,v), P(v)");
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  db.AddTuple("A", {a});
  db.AddTuple("R", {a, b});
  db.AddTuple("P", {a});
  db.AddTuple("P", {b});
  db.AddTuple("S", {a, b});
  ResilienceEngine engine;
  SolveOutcome out = engine.Solve(q, db);
  std::set<SolverKind> planned;
  for (const ComponentPlan& cp : out.plan->components) {
    planned.insert(cp.solver);
  }
  EXPECT_EQ(planned, (std::set<SolverKind>{SolverKind::kExact,
                                           SolverKind::kLinearFlow}));
  EXPECT_TRUE(out.error.empty());
  EXPECT_FALSE(out.result.unbreakable);
  EXPECT_EQ(out.result.resilience, 0);
  EXPECT_TRUE(out.result.contingency.empty());
  EXPECT_EQ(out.result.solver, SolverKind::kExact);
  EXPECT_EQ(out.exact.witnesses, 0u);

  // With C(a) the construction component holds, and the exact search
  // runs on the other one.
  db.AddTuple("C", {a});
  out = engine.Solve(q, db);
  EXPECT_EQ(out.result.resilience, 1);
  EXPECT_GT(out.exact.witnesses, 0u);
  EXPECT_EQ(out.result.resilience,
            ComputeResilienceReference(q, db).resilience);
  EXPECT_TRUE(VerifyContingency(q, db, out.result.contingency));
}

TEST(Engine, FalseLastExactComponentIsAPlainFalseQuery) {
  // q_perm (perm-count) then an S-chain (exact, last in the plan). The
  // permutation component holds, the chain has no witness: the outcome
  // is the default false-query one, with no error and no exact counters.
  Query q = MustParseQuery("R(x,y), R(y,x), S(u,v), S(v,w)");
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  db.AddTuple("R", {a, b});
  db.AddTuple("R", {b, a});
  db.AddTuple("S", {a, b});
  ResilienceEngine engine;
  SolveOutcome out = engine.Solve(q, db);
  ASSERT_EQ(out.plan->components.size(), 2u);
  EXPECT_EQ(out.plan->components[0].solver, SolverKind::kPermCount);
  EXPECT_EQ(out.plan->components[1].solver, SolverKind::kExact);
  EXPECT_TRUE(out.error.empty());
  EXPECT_FALSE(out.result.unbreakable);
  EXPECT_EQ(out.result.resilience, 0);
  EXPECT_TRUE(out.result.contingency.empty());
  EXPECT_EQ(out.exact.witnesses, 0u);
  EXPECT_EQ(out.exact.witness_sets, 0u);
  EXPECT_FALSE(out.exact.witness_budget_exceeded);
}

TEST(Engine, LastExactComponentOverWitnessBudgetKeepsItsErrorText) {
  // The plan above with the chain holding twice over and a one-witness
  // budget: the error names the budget exactly as before.
  Query q = MustParseQuery("R(x,y), R(y,x), S(u,v), S(v,w)");
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b"), c = db.Intern("c"),
        d = db.Intern("d");
  db.AddTuple("R", {a, b});
  db.AddTuple("R", {b, a});
  db.AddTuple("S", {a, b});
  db.AddTuple("S", {b, c});
  db.AddTuple("S", {c, d});
  EngineOptions options;
  options.exact.witness_limit = 1;
  ResilienceEngine engine(options);
  SolveOutcome out = engine.Solve(q, db);
  EXPECT_EQ(out.error,
            "witness budget exceeded (witness_limit=1): the witness family "
            "is incomplete and no exact answer can be given");
  EXPECT_TRUE(out.exact.witness_budget_exceeded);
  EXPECT_EQ(out.exact.witnesses, 1u);
  EXPECT_FALSE(out.result.unbreakable);
  EXPECT_EQ(out.result.resilience, 0);
  EXPECT_TRUE(out.result.contingency.empty());

  // Without the budget the same plan solves: one S tuple breaks the chain.
  ResilienceEngine unbudgeted;
  SolveOutcome ok = unbudgeted.Solve(q, db);
  EXPECT_TRUE(ok.error.empty());
  EXPECT_EQ(ok.result.resilience, 1);
  EXPECT_EQ(ok.exact.witnesses, 2u);
  EXPECT_TRUE(VerifyContingency(q, db, ok.result.contingency));
}

TEST(Engine, OnlyTheFirstOfTwoExactComponentsHolding) {
  // Two exact chains; the R-chain (first) holds, the S-chain (last)
  // does not, so q is false: rho = 0 and no exact search runs. The
  // mirrored instance, where only the last holds, is false too.
  Query q = MustParseQuery("R(x,y), R(y,z), S(u,v), S(v,w)");
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b"), c = db.Intern("c");
  db.AddTuple("R", {a, b});
  db.AddTuple("R", {b, c});
  db.AddTuple("S", {a, b});
  ResilienceEngine engine;
  SolveOutcome out = engine.Solve(q, db);
  ASSERT_EQ(out.plan->components.size(), 2u);
  EXPECT_EQ(out.plan->components[0].solver, SolverKind::kExact);
  EXPECT_EQ(out.plan->components[1].solver, SolverKind::kExact);
  EXPECT_TRUE(out.error.empty());
  EXPECT_FALSE(out.result.unbreakable);
  EXPECT_EQ(out.result.resilience, 0);
  EXPECT_TRUE(out.result.contingency.empty());
  EXPECT_EQ(out.exact.witnesses, 0u);

  Database mirrored;
  Value m = mirrored.Intern("a"), n = mirrored.Intern("b"),
        o = mirrored.Intern("c");
  mirrored.AddTuple("R", {m, n});
  mirrored.AddTuple("S", {m, n});
  mirrored.AddTuple("S", {n, o});
  out = engine.Solve(q, mirrored);
  EXPECT_TRUE(out.error.empty());
  EXPECT_EQ(out.result.resilience, 0);
  EXPECT_EQ(out.exact.witnesses, 0u);
}

TEST(Engine, TwoHoldingExactComponentsEachSolveTheirOwnFamily) {
  // Both exact chains hold with different rho: two disjoint 2-paths on
  // one relation (rho 2) and one 2-path on the other (rho 1). Each
  // component must be searched on its own witness family, whichever of
  // the two is the cheaper one, and the exact counters add up both
  // families.
  Query q = MustParseQuery("R(x,y), R(y,z), S(u,v), S(v,w)");
  for (bool cheap_last : {true, false}) {
    const std::string cheap = cheap_last ? "S" : "R";
    const std::string dear = cheap_last ? "R" : "S";
    Database db;
    std::vector<Value> v;
    for (const char* name : {"a", "b", "c", "d", "e", "f"}) {
      v.push_back(db.Intern(name));
    }
    db.AddTuple(dear, {v[0], v[1]});
    db.AddTuple(dear, {v[1], v[2]});
    db.AddTuple(dear, {v[3], v[4]});
    db.AddTuple(dear, {v[4], v[5]});
    db.AddTuple(cheap, {v[0], v[1]});
    db.AddTuple(cheap, {v[1], v[2]});

    ResilienceEngine engine;
    const std::string label = "cheap " + cheap;
    SolveOutcome out = engine.Solve(q, db);
    ASSERT_EQ(out.plan->components.size(), 2u) << label;
    EXPECT_EQ(out.plan->components[0].solver, SolverKind::kExact) << label;
    EXPECT_EQ(out.plan->components[1].solver, SolverKind::kExact) << label;
    ASSERT_TRUE(out.error.empty()) << label << ": " << out.error;
    EXPECT_FALSE(out.result.unbreakable) << label;
    EXPECT_EQ(out.result.resilience, 1) << label;
    EXPECT_EQ(out.result.resilience,
              ComputeResilienceReference(q, db).resilience)
        << label;
    ASSERT_EQ(out.result.contingency.size(), 1u) << label;
    EXPECT_EQ(db.relation_name(out.result.contingency[0].relation), cheap)
        << label;
    Database copy = db;
    EXPECT_TRUE(VerifyContingency(q, copy, out.result.contingency)) << label;

    size_t witnesses = 0;
    for (const ComponentPlan& comp : out.plan->components) {
      witnesses +=
          CollectWitnessFamily(comp.query, db, kNoWitnessLimit).witnesses;
    }
    EXPECT_EQ(out.exact.witnesses, witnesses) << label;
  }
}

TEST(Engine, UnbreakableExactComponent) {
  // An all-exogenous query holds and cannot be broken. The exact path
  // (force_exact) reports it unbreakable after its first witness; the
  // planned path settles it as a no-endogenous component.
  Query q = MustParseQuery("R^x(x,y), R^x(y,z)");
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b"), c = db.Intern("c");
  db.AddTuple("R", {a, b});
  db.AddTuple("R", {b, c});
  db.AddTuple("R", {c, c});

  EngineOptions options;
  options.force_exact = true;
  ResilienceEngine exact(options);
  SolveOutcome out = exact.Solve(q, db);
  EXPECT_TRUE(out.error.empty());
  EXPECT_TRUE(out.result.unbreakable);
  EXPECT_EQ(out.result.solver, SolverKind::kExact);
  EXPECT_TRUE(out.result.contingency.empty());
  EXPECT_EQ(out.exact.witnesses, 1u);
  EXPECT_EQ(out.exact.witness_sets, 0u);
  EXPECT_EQ(out.exact.nodes, 0u);

  ResilienceEngine planned;
  out = planned.Solve(q, db);
  ASSERT_EQ(out.plan->components.size(), 1u);
  EXPECT_TRUE(out.plan->components[0].no_endogenous);
  EXPECT_TRUE(out.error.empty());
  EXPECT_TRUE(out.result.unbreakable);
  EXPECT_EQ(out.exact.witnesses, 0u);
}

// --- Plan cache --------------------------------------------------------------

TEST(Engine, PlanIsMemoizedOnTheQueryFingerprint) {
  ResilienceEngine engine;
  Query q = MustParseQuery("R(x,y), R(y,x)");
  std::shared_ptr<const ResiliencePlan> first = engine.Plan(q);
  std::shared_ptr<const ResiliencePlan> second = engine.Plan(q);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first->fingerprint, QueryFingerprint(q));
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(Engine, PlanCacheEvictsLeastRecentlyUsed) {
  EngineOptions options;
  options.plan_cache_capacity = 1;
  ResilienceEngine engine(options);
  Query a = MustParseQuery("R(x,y), R(y,x)");
  Query b = MustParseQuery("R(x), S(x,y), R(y)");
  engine.Plan(a);
  engine.Plan(b);  // evicts a
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  engine.Plan(a);  // cold again
  EXPECT_EQ(engine.plan_cache_stats().misses, 3u);
  EXPECT_EQ(engine.plan_cache_stats().hits, 0u);
}

TEST(Engine, SolveReportsPlanCacheHits) {
  ResilienceEngine engine;
  Query q = MustParseQuery("R(x,y), R(y,x)");
  Database db = GeneratePermutation({6, 0.5, 1});
  SolveOutcome cold = engine.Solve(q, db);
  SolveOutcome warm = engine.Solve(q, db);
  EXPECT_FALSE(cold.plan_cache_hit);
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_EQ(warm.plan_ms, 0);
  EXPECT_EQ(cold.result.resilience, warm.result.resilience);
  EXPECT_EQ(cold.result.solver, warm.result.solver);
}

TEST(Engine, ZeroCapacityDisablesCaching) {
  EngineOptions options;
  options.plan_cache_capacity = 0;
  ResilienceEngine engine(options);
  Query q = MustParseQuery("R(x,y), R(y,x)");
  engine.Plan(q);
  engine.Plan(q);
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// --- Options -----------------------------------------------------------------

TEST(Engine, ForceExactRunsTheReferenceSolver) {
  EngineOptions options;
  options.force_exact = true;
  ResilienceEngine engine(options);
  Query q = MustParseQuery("A(x), R(x,y), R(z,y), C(z)");
  Database db = GenerateDominationHeavy({6, 0.5, 1});
  SolveOutcome out = engine.Solve(q, db);
  EXPECT_EQ(out.result.solver, SolverKind::kExact);
  ResilienceResult oracle = ComputeResilienceReference(q, db);
  EXPECT_EQ(out.result.unbreakable, oracle.unbreakable);
  EXPECT_EQ(out.result.resilience, oracle.resilience);
}

TEST(Engine, WitnessBudgetSurfacesAsStructuredError) {
  // q_chain is NP-complete, so the engine plans the exact solver; with a
  // one-witness budget the Solve must report the budget error and the
  // default result, never a truncated answer.
  EngineOptions options;
  options.exact.witness_limit = 1;
  ResilienceEngine engine(options);
  Query q = MustParseQuery("R(x,y), R(y,z)");
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  db.AddTuple("R", {v3, v3});
  SolveOutcome out = engine.Solve(q, db);
  EXPECT_NE(out.error.find("witness budget exceeded"), std::string::npos);
  EXPECT_TRUE(out.exact.witness_budget_exceeded);
  EXPECT_EQ(out.result.resilience, 0);

  // A roomy budget behaves exactly like no budget.
  EngineOptions roomy;
  roomy.exact.witness_limit = 1000;
  ResilienceEngine roomy_engine(roomy);
  SolveOutcome ok = roomy_engine.Solve(q, db);
  EXPECT_TRUE(ok.error.empty());
  EXPECT_EQ(ok.result.resilience, 2);
  EXPECT_FALSE(ok.exact.witness_budget_exceeded);
}

TEST(Engine, SolveOutcomeCarriesExactSearchStats) {
  ResilienceEngine engine;
  Query q = MustParseQuery("R(x,y), R(y,z)");  // NP-complete: exact runs
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  db.AddTuple("R", {v3, v3});
  SolveOutcome out = engine.Solve(q, db);
  EXPECT_EQ(out.result.resilience, 2);
  EXPECT_EQ(out.exact.witnesses, 3u);
  EXPECT_EQ(out.exact.witness_sets, 3u);
  EXPECT_GE(out.exact.nodes, 1u);

  // PTIME queries dispatched to a construction never touch the exact
  // path: the counters stay zero.
  Query ptime = MustParseQuery("R(x,y), R(y,x)");
  Database perm = GeneratePermutation({6, 0.5, 1});
  SolveOutcome fast = engine.Solve(ptime, perm);
  EXPECT_EQ(fast.result.solver, SolverKind::kPermCount);
  EXPECT_EQ(fast.exact.witnesses, 0u);
  EXPECT_EQ(fast.exact.nodes, 0u);
}

TEST(Engine, NodeBudgetReturnsVerifiedUpperBound) {
  EngineOptions options;
  options.exact.node_budget = 1;
  ResilienceEngine engine(options);
  Query q = MustParseQuery("R(x,y), R(y,z)");
  Database db = GenerateChain({8, 0.5, 3});
  SolveOutcome out = engine.Solve(q, db);
  EXPECT_TRUE(out.error.empty());
  ResilienceResult oracle = ComputeResilienceReference(q, db);
  if (!oracle.unbreakable && oracle.resilience > 0) {
    EXPECT_GE(out.result.resilience, oracle.resilience);
    EXPECT_TRUE(VerifyContingency(q, db, out.result.contingency));
  }
}

TEST(Engine, UncoveredPtimeComponentPlansExactFallback) {
  // q_rats is PTIME (sj-free and triad-free) but not linear, so no
  // implemented construction covers it: the plan names exact-fallback,
  // and that is the solver that runs.
  Query q = CatalogQuery("q_rats");
  ResilienceEngine engine;
  std::shared_ptr<const ResiliencePlan> plan = engine.Plan(q);
  ASSERT_EQ(plan->components.size(), 1u);
  EXPECT_EQ(plan->components[0].classification.complexity,
            Complexity::kPTime);
  EXPECT_STREQ(SolverKindName(plan->components[0].solver), "exact-fallback");
  EXPECT_FALSE(plan->components[0].reason.empty());

  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("a")});
  db.AddTuple("A", {v("b")});
  db.AddTuple("R", {v("a"), v("c")});
  db.AddTuple("R", {v("b"), v("c")});
  db.AddTuple("T", {v("d"), v("a")});
  db.AddTuple("T", {v("d"), v("b")});
  db.AddTuple("S", {v("c"), v("d")});
  SolveOutcome out = engine.Solve(plan, db);
  EXPECT_TRUE(out.error.empty());
  EXPECT_STREQ(SolverKindName(out.result.solver), "exact-fallback");
  EXPECT_EQ(out.result.resilience,
            ComputeResilienceReference(q, db).resilience);
  EXPECT_EQ(out.result.resilience, 1);  // S(c,d) joins both witnesses
}

// --- Explain -----------------------------------------------------------------

// --- Engine sharing: concurrent Solve calls on one instance -----------------

// The documented concurrency contract (engine.h): every public method is
// safe from any number of threads; the only shared mutable state is the
// mutex-guarded plan-cache LRU. This hammers one engine from 8 threads
// over a working set larger than the cache (forcing concurrent splices,
// inserts, and evictions) and checks every answer against serially
// precomputed references. Runs under TSan via the `parallel` CI job's
// unit label.
void StressConcurrentSolves(EngineOptions options) {
  options.plan_cache_capacity = 3;  // < working set: constant LRU churn
  ResilienceEngine engine(options);
  struct Case {
    Query q;
    Database db;
    bool unbreakable;
    int resilience;
  };
  std::vector<Case> cases;
  const char* texts[] = {"R(x,y), R(y,x)", "R(x,y), R(y,z)",
                         "R(x), S(x,y), R(y)", "R(x,y), S(y,z), T(z,x)",
                         "A(x), R(x,y), R(y,x)", "R(x,y), R(y,z), S^x(z,w)",
                         // q_TS3conf: conf3-forced solves on a copy
                         "T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)"};
  for (const char* text : texts) {
    Case c;
    c.q = MustParseQuery(text);
    c.db = GenerateUniform(c.q, {4, 0.5, 7});
    ResilienceResult reference = ComputeResilienceReference(c.q, c.db);
    c.unbreakable = reference.unbreakable;
    c.resilience = reference.resilience;
    cases.push_back(std::move(c));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        const Case& c = cases[static_cast<size_t>(t + i) % cases.size()];
        SolveOutcome out = engine.Solve(c.q, c.db);
        bool ok = out.error.empty() &&
                  out.result.unbreakable == c.unbreakable &&
                  (c.unbreakable || out.result.resilience == c.resilience);
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u * 30u);
  EXPECT_LE(stats.entries, 3u);
}

TEST(Engine, ConcurrentSolvesOnOneEngineAreSafe) {
  StressConcurrentSolves(EngineOptions{});
}

TEST(Engine, ConcurrentSolvesComposeWithSolverWorkers) {
  // Each Solve additionally spins up its own private solver fan-out:
  // concurrent Solves nest independent pools without interference.
  EngineOptions options;
  options.exact.solver_threads = 2;
  StressConcurrentSolves(options);
}

TEST(Plan, ExplainNamesPipelineSolverAndCitation) {
  ResilienceEngine engine;
  std::string ptime = engine.Plan(CatalogQuery("q_ACconf"))->Explain();
  EXPECT_NE(ptime.find("pipeline"), std::string::npos);
  EXPECT_NE(ptime.find("linear-flow"), std::string::npos);
  EXPECT_NE(ptime.find("Proposition"), std::string::npos);
  // One solver per component: no fallback line, no "then" chain.
  EXPECT_EQ(ptime.find("fallback"), std::string::npos);
  EXPECT_EQ(ptime.find("then "), std::string::npos);

  std::string uncovered = engine.Plan(CatalogQuery("q_rats"))->Explain();
  EXPECT_NE(uncovered.find("solver:     exact-fallback"), std::string::npos);
  EXPECT_EQ(uncovered.find("linear-flow"), std::string::npos);

  std::string hard = engine.Plan(MustParseQuery("R(x,y), R(y,z)"))->Explain();
  EXPECT_NE(hard.find("NP-complete"), std::string::npos);
  EXPECT_NE(hard.find("branch-and-bound"), std::string::npos);
}

// --- Batch integration: cold vs cached plans ---------------------------------

TEST(Batch, CachedPlanYieldsByteIdenticalReportRows) {
  // The same (scenario, size, seed) twice with memoization off: the
  // second cell re-solves with the cached plan and must produce a
  // byte-identical deterministic row prefix (columns 1-15).
  BatchPlan plan;
  plan.scenarios = {"perm", "perm"};
  plan.sizes = {5};
  plan.seeds = {3};
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(plan, &jobs, &error)) << error;
  ASSERT_EQ(jobs.size(), 2u);
  BatchOptions options;  // threads = 1: deterministic attribution
  options.memoize = false;
  options.check_oracle = true;
  BatchReport report = RunBatch(jobs, options);
  EXPECT_FALSE(report.cells[0].plan_cache_hit);
  EXPECT_TRUE(report.cells[1].plan_cache_hit);
  EXPECT_EQ(report.plan_cache_hits, 1u);
  EXPECT_EQ(report.plan_cache_misses, 1u);
  EXPECT_EQ(report.plan_cache_entries, 1u);

  std::stringstream csv;
  WriteReportCsv(report, csv);
  std::vector<std::string> lines;
  for (std::string line; std::getline(csv, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 cells
  auto prefix = [](const std::string& line) {
    // Strip the volatile tail: memo_hit, plan_cache_hit, wall_ms.
    size_t end = line.size();
    for (int cut = 0; cut < 3; ++cut) end = line.rfind(',', end - 1);
    return line.substr(0, end);
  };
  EXPECT_EQ(prefix(lines[1]), prefix(lines[2]));
}

TEST(Batch, MemoizedCellsDoNotTouchThePlanCache) {
  BatchPlan plan;
  plan.scenarios = {"perm", "perm"};
  plan.sizes = {5};
  plan.seeds = {3};
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(plan, &jobs, &error)) << error;
  BatchOptions options;  // memoize = true
  BatchReport report = RunBatch(jobs, options);
  EXPECT_TRUE(report.cells[1].memo_hit);
  EXPECT_FALSE(report.cells[1].plan_cache_hit);
  EXPECT_EQ(report.plan_cache_hits, 0u);
  EXPECT_EQ(report.plan_cache_misses, 1u);
}

}  // namespace
}  // namespace rescq
