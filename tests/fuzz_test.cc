// End-to-end differential fuzzing: random single-self-join binary
// queries (beyond the named catalog) pushed through the full pipeline.
// Invariants checked on every instance:
//  - the classifier never crashes and never contradicts itself
//    (hard patterns imply NP-complete, etc.);
//  - the dispatcher's answer equals the exact oracle;
//  - returned contingency sets really falsify the query;
//  - PTIME-classified connected queries in the two-R-atom class are
//    answered by a specialized construction or the documented fallback.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "complexity/catalog.h"
#include "complexity/classifier.h"
#include "complexity/patterns.h"
#include "cq/parser.h"
#include "db/database.h"
#include "db/delta.h"
#include "resilience/engine.h"
#include "resilience/exact_solver.h"
#include "resilience/incremental.h"
#include "resilience/solver.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/churn.h"
#include "workload/generators.h"

namespace rescq {
namespace {

// Random ssj binary query: two or three R-atoms over up to 4 variables,
// a sprinkle of unary pins and at most one binary connector, random
// exogenous flags on the non-R relations.
Query RandomQuery(Rng& rng) {
  static const char* kVars[] = {"x", "y", "z", "w"};
  int num_vars = 2 + static_cast<int>(rng.Below(3));
  int num_r = 2 + static_cast<int>(rng.Chance(1, 3) ? 1 : 0);
  std::vector<std::string> parts;
  for (int i = 0; i < num_r; ++i) {
    const char* a = kVars[rng.Below(static_cast<uint64_t>(num_vars))];
    const char* b = kVars[rng.Below(static_cast<uint64_t>(num_vars))];
    parts.push_back(StrFormat("R(%s,%s)", a, b));
  }
  if (rng.Chance(1, 2)) {
    const char* a = kVars[rng.Below(static_cast<uint64_t>(num_vars))];
    const char* b = kVars[rng.Below(static_cast<uint64_t>(num_vars))];
    parts.push_back(StrFormat("S%s(%s,%s)", rng.Chance(1, 2) ? "^x" : "", a,
                              b));
  }
  for (int v = 0; v < num_vars; ++v) {
    if (rng.Chance(1, 3)) {
      parts.push_back(StrFormat("U%d%s(%s)", v,
                                rng.Chance(1, 3) ? "^x" : "", kVars[v]));
    }
  }
  return MustParseQuery(Join(parts, ", "));
}

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

TEST(Fuzz, RandomQueriesSurviveTheFullPipeline) {
  Rng rng(0xD1CE);
  int ptime_seen = 0, hard_seen = 0;
  for (int round = 0; round < 200; ++round) {
    Query q = RandomQuery(rng);
    Classification c = ClassifyResilience(q);
    // Self-consistency: the paper's class never leaves a verdict open
    // for <= 2 R-atoms (Theorem 37); 3 R-atoms may be open.
    if (c.complexity == Complexity::kPTime) ++ptime_seen;
    if (c.complexity == Complexity::kNpComplete) ++hard_seen;

    Database db = RandomDatabase(q, 4, 7, rng);
    ResilienceResult fast = ComputeResilience(q, db);
    ResilienceResult exact = ComputeResilienceExact(q, db);
    ASSERT_EQ(fast.unbreakable, exact.unbreakable)
        << q.ToString() << " round " << round;
    if (exact.unbreakable) continue;
    ASSERT_EQ(fast.resilience, exact.resilience)
        << q.ToString() << " round " << round << " via "
        << SolverKindName(fast.solver);
    ASSERT_EQ(static_cast<int>(fast.contingency.size()), fast.resilience);
    ASSERT_TRUE(VerifyContingency(q, db, fast.contingency))
        << q.ToString() << " round " << round;
  }
  // The generator must exercise both sides of the dichotomy.
  EXPECT_GT(ptime_seen, 10);
  EXPECT_GT(hard_seen, 10);
}

TEST(Fuzz, TwoAtomClassNeverComesBackOpen) {
  Rng rng(0xFACE);
  for (int round = 0; round < 300; ++round) {
    Query q = RandomQuery(rng);
    // Restrict to the fully characterized class: one repeated relation,
    // exactly two R-atoms after minimization.
    Classification c = ClassifyResilience(q);
    std::optional<SelfJoinInfo> sj = GetSingleSelfJoin(c.normalized);
    if (!sj.has_value() || sj->atoms.size() != 2) continue;
    if (c.normalized.RepeatedRelations().size() > 1) continue;
    EXPECT_NE(c.complexity, Complexity::kOpen)
        << q.ToString() << " -> " << c.reason;
    EXPECT_NE(c.complexity, Complexity::kOutOfScope)
        << q.ToString() << " -> " << c.reason;
  }
}

TEST(Fuzz, ClassificationIsInvariantUnderVariableRenaming) {
  Rng rng(0xBEAD);
  for (int round = 0; round < 100; ++round) {
    Query q = RandomQuery(rng);
    // Rename variables by reversing the name table.
    std::vector<std::string> names = q.var_names();
    std::vector<std::string> reversed(names.rbegin(), names.rend());
    Query renamed(q.atoms(), reversed);
    Classification a = ClassifyResilience(q);
    Classification b = ClassifyResilience(renamed);
    EXPECT_EQ(static_cast<int>(a.complexity), static_cast<int>(b.complexity))
        << q.ToString();
  }
}

// Old-style brute-force reference: branch on every element of the first
// open set with only incumbent pruning — no reductions, no components,
// no flow bounds. Exponential, but the sweep keeps instances tiny.
void ReferenceHittingSetSearch(const std::vector<std::vector<int>>& sets,
                               std::vector<bool>& chosen, int chosen_count,
                               int* best) {
  if (chosen_count >= *best) return;
  const std::vector<int>* open = nullptr;
  for (const std::vector<int>& s : sets) {
    bool hit = false;
    for (int e : s) hit = hit || chosen[static_cast<size_t>(e)];
    if (!hit) {
      open = &s;
      break;
    }
  }
  if (open == nullptr) {
    *best = chosen_count;
    return;
  }
  for (int e : *open) {
    chosen[static_cast<size_t>(e)] = true;
    ReferenceHittingSetSearch(sets, chosen, chosen_count + 1, best);
    chosen[static_cast<size_t>(e)] = false;
  }
}

int ReferenceHittingSet(const std::vector<std::vector<int>>& sets,
                        int num_elements) {
  std::vector<bool> chosen(static_cast<size_t>(num_elements), false);
  int best = num_elements;
  ReferenceHittingSetSearch(sets, chosen, 0, &best);
  return best;
}

TEST(Fuzz, CatalogWideExactDifferentialSweep) {
  // Every named query of the paper, over random uniform instances:
  //  - the overhauled exact solver (streaming witnesses, domination,
  //    components, flow bounds) must agree with the bound-free
  //    brute-force search on the same hitting-set family;
  //  - the engine's dispatched answer must agree with the exact
  //    reference, and its contingency set must verify.
  for (const CatalogEntry& entry : PaperCatalog()) {
    Query q = MustParseQuery(entry.text);
    uint64_t seed_base = std::hash<std::string>()(entry.name);
    for (int trial = 0; trial < 2; ++trial) {
      ScenarioParams params;
      params.size = 4 + trial;
      params.density = 0.5;
      params.seed = seed_base + static_cast<uint64_t>(trial);
      Database db = GenerateUniform(q, params);

      WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
      ResilienceResult exact = ComputeResilienceExact(q, db);
      if (family.unbreakable) {
        EXPECT_TRUE(exact.unbreakable) << entry.name;
        continue;
      }
      std::map<TupleId, int> ids;
      std::vector<std::vector<int>> sets;
      for (const std::vector<TupleId>& w : family.Materialize()) {
        std::vector<int> s;
        for (TupleId t : w) {
          auto [it, inserted] = ids.emplace(t, static_cast<int>(ids.size()));
          s.push_back(it->second);
        }
        sets.push_back(std::move(s));
      }
      int reference = ReferenceHittingSet(sets, static_cast<int>(ids.size()));
      ASSERT_EQ(exact.resilience, reference)
          << entry.name << " trial " << trial;

      ResilienceResult fast = ComputeResilience(q, db);
      ASSERT_EQ(fast.unbreakable, exact.unbreakable) << entry.name;
      ASSERT_EQ(fast.resilience, exact.resilience)
          << entry.name << " via " << SolverKindName(fast.solver);
      ASSERT_TRUE(VerifyContingency(q, db, fast.contingency)) << entry.name;
    }
  }
}

TEST(Fuzz, SpanFamilyMatchesLegacyEnumerationAcrossTheCatalog) {
  // The arena-backed WitnessFamily must present exactly the element
  // sequences the legacy vector-of-vectors surface produced, for every
  // named query of the paper: WitnessTupleSets is the legacy reference
  // (own enumeration + dedup), Materialize() bridges the spans back.
  for (const CatalogEntry& entry : PaperCatalog()) {
    Query q = MustParseQuery(entry.text);
    uint64_t seed_base = std::hash<std::string>()(entry.name);
    for (int trial = 0; trial < 2; ++trial) {
      ScenarioParams params;
      params.size = 4 + trial;
      params.density = 0.5;
      params.seed = seed_base + 77 + static_cast<uint64_t>(trial);
      Database db = GenerateUniform(q, params);
      WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
      ASSERT_EQ(family.Materialize(), WitnessTupleSets(q, db))
          << entry.name << " trial " << trial;
      // The spans really are interned: every presented set resolves to
      // an arena id, and distinct presented sets resolve to distinct
      // ids (dedup happened in the arena, not by the surface sort).
      ASSERT_EQ(family.arena.num_spans(), family.size()) << entry.name;
      std::set<uint32_t> arena_ids;
      for (size_t i = 0; i < family.size(); ++i) {
        std::vector<TupleId> content = family.set(i);
        uint32_t id = family.arena.Find(content.data(), content.size());
        ASSERT_LT(id, family.arena.num_spans()) << entry.name;
        arena_ids.insert(id);
      }
      EXPECT_EQ(arena_ids.size(), family.size()) << entry.name;
    }
  }
}

TEST(Fuzz, ParallelExactDifferentialSweep) {
  // Randomized multi-component hitting-set instances: the parallel
  // solver (2 and 4 workers, self-contained component searches) against
  // the serial solver against the bound-free brute-force reference. Element
  // ids are blocked per component so every instance genuinely fans out.
  Rng rng(0x9A7A11E1);
  for (int round = 0; round < 60; ++round) {
    std::vector<std::vector<int>> sets;
    int components = 2 + static_cast<int>(rng.Below(4));
    int num_elements = 0;
    for (int c = 0; c < components; ++c) {
      int base = c * 8;
      int family = 3 + static_cast<int>(rng.Below(6));
      for (int s = 0; s < family; ++s) {
        std::vector<int> set;
        int arity = 1 + static_cast<int>(rng.Below(3));
        for (int k = 0; k < arity; ++k) {
          int e = base + static_cast<int>(rng.Below(6));
          set.push_back(e);
          num_elements = std::max(num_elements, e + 1);
        }
        sets.push_back(set);
      }
    }
    int reference = ReferenceHittingSet(sets, num_elements);
    const HittingSetFamily family = HittingSetFamily::From(sets);
    HittingSetResult serial = SolveMinHittingSet(family);
    ASSERT_EQ(serial.size, reference) << "round " << round;
    for (int threads : {2, 4}) {
      ExactOptions options;
      options.solver_threads = threads;
      ExactStats stats;
      HittingSetResult parallel = SolveMinHittingSet(family, options, &stats);
      ASSERT_EQ(parallel.size, reference)
          << "round " << round << " threads " << threads;
      ASSERT_TRUE(parallel.proven_optimal)
          << "round " << round << " threads " << threads;
      ASSERT_EQ(static_cast<int>(parallel.chosen.size()), parallel.size);
      for (const std::vector<int>& s : sets) {
        bool hit = false;
        for (int e : s) {
          for (int c : parallel.chosen) hit = hit || c == e;
        }
        ASSERT_TRUE(hit) << "round " << round << " threads " << threads;
      }
    }
  }
}

TEST(Fuzz, ParallelIncrementalChurnSweep) {
  // Random queries under churn with solver_threads > 1: the parallel
  // session must stay byte-identical to the serial session (the
  // incremental contract keeps even the contingency deterministic) and
  // both must agree with the from-scratch exact oracle.
  Rng rng(0xC0FFEE);
  EngineOptions parallel_options;
  parallel_options.solver_threads = 3;
  for (int round = 0; round < 25; ++round) {
    Query q = RandomQuery(rng);
    Database base = RandomDatabase(q, 4, 8, rng);
    const ChurnKind& kind =
        ChurnCatalog()[round % ChurnCatalog().size()];
    ChurnParams churn;
    churn.epochs = 3;
    churn.rate = 0.3;
    churn.seed = 0x5EED + static_cast<uint64_t>(round);
    UpdateLog log = GenerateChurn(base, kind.name, churn);

    IncrementalSession serial(q, base, EngineOptions{});
    IncrementalSession parallel(q, base, parallel_options);
    int epoch = 0;
    auto check = [&](const EpochOutcome& a, const EpochOutcome& b) {
      ASSERT_EQ(a.unbreakable, b.unbreakable)
          << q.ToString() << " round " << round << " epoch " << epoch;
      ASSERT_EQ(a.resilience, b.resilience)
          << q.ToString() << " round " << round << " epoch " << epoch;
      ASSERT_EQ(a.contingency, b.contingency)
          << q.ToString() << " round " << round << " epoch " << epoch;
      ASSERT_EQ(a.lower_bound, b.lower_bound)
          << q.ToString() << " round " << round << " epoch " << epoch;
      ResilienceResult exact = ComputeResilienceExact(q, parallel.db());
      ASSERT_EQ(b.unbreakable, exact.unbreakable)
          << q.ToString() << " round " << round << " epoch " << epoch;
      if (!exact.unbreakable) {
        ASSERT_EQ(b.resilience, exact.resilience)
            << q.ToString() << " round " << round << " epoch " << epoch;
      }
    };
    check(serial.current(), parallel.current());
    if (::testing::Test::HasFatalFailure()) return;
    for (const Epoch& e : log.epochs) {
      ++epoch;
      EpochOutcome a = serial.Apply(e);
      EpochOutcome b = parallel.Apply(e);
      check(a, b);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(Fuzz, BudgetedEngineNeverMisreports) {
  // Random queries under a tiny witness budget: every outcome is either
  // a correct answer (error empty, agrees with the oracle) or a
  // structured budget error — never a silently wrong value.
  Rng rng(0xB1D6E7);
  EngineOptions options;
  options.witness_limit = 5;
  ResilienceEngine engine(options);
  int errors_seen = 0, answers_seen = 0;
  for (int round = 0; round < 60; ++round) {
    Query q = RandomQuery(rng);
    Database db = RandomDatabase(q, 4, 6, rng);
    SolveOutcome out = engine.Solve(q, db);
    if (!out.error.empty()) {
      EXPECT_NE(out.error.find("witness budget exceeded"), std::string::npos);
      ++errors_seen;
      continue;
    }
    ++answers_seen;
    ResilienceResult oracle = ComputeResilienceReference(q, db);
    ASSERT_EQ(out.result.unbreakable, oracle.unbreakable)
        << q.ToString() << " round " << round;
    if (!oracle.unbreakable) {
      ASSERT_EQ(out.result.resilience, oracle.resilience)
          << q.ToString() << " round " << round;
    }
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(errors_seen, 0);
  EXPECT_GT(answers_seen, 0);
}

TEST(Fuzz, IncrementalSessionDifferentialSweep) {
  // Every named query of the paper × every churn generator × seeds:
  // IncrementalSession after every epoch must agree exactly with
  // ComputeResilienceExact from scratch over the session's database —
  // the witness-delta maintenance, the component decomposition, and
  // the per-epoch region re-solve all sit between those two answers.
  for (const CatalogEntry& entry : PaperCatalog()) {
    Query q = MustParseQuery(entry.text);
    uint64_t seed_base = std::hash<std::string>()(entry.name);
    for (const ChurnKind& kind : ChurnCatalog()) {
      for (uint64_t seed = 1; seed <= 2; ++seed) {
        ScenarioParams params;
        params.size = 4;
        params.density = 0.5;
        params.seed = seed_base + seed;
        Database base = GenerateUniform(q, params);

        ChurnParams churn;
        churn.epochs = 3;
        churn.rate = 0.3;
        churn.seed = seed_base ^ (seed * 0x9e3779b9u);
        UpdateLog log = GenerateChurn(base, kind.name, churn);

        IncrementalSession session(q, base, EngineOptions{});
        int epoch = 0;
        auto check = [&](const EpochOutcome& out) {
          ResilienceResult exact =
              ComputeResilienceExact(q, session.db());
          ASSERT_EQ(out.unbreakable, exact.unbreakable)
              << entry.name << " " << kind.name << " seed " << seed
              << " epoch " << epoch;
          if (exact.unbreakable) return;
          ASSERT_EQ(out.resilience, exact.resilience)
              << entry.name << " " << kind.name << " seed " << seed
              << " epoch " << epoch;
          Database copy = session.db();
          ASSERT_TRUE(VerifyContingency(q, copy, out.contingency))
              << entry.name << " " << kind.name << " seed " << seed
              << " epoch " << epoch;
        };
        check(session.current());
        if (::testing::Test::HasFatalFailure()) return;
        for (const Epoch& e : log.epochs) {
          ++epoch;
          EpochOutcome out = session.Apply(e);
          check(out);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(Fuzz, ResilienceIsMonotoneUnderTupleRemoval) {
  // Removing a tuple never increases resilience (fewer witnesses).
  Rng rng(0xF00D);
  Query q = MustParseQuery("R(x,y), R(y,z)");
  for (int round = 0; round < 25; ++round) {
    Database db = RandomDatabase(q, 5, 12, rng);
    ResilienceResult before = ComputeResilienceExact(q, db);
    // Deactivate a random active tuple.
    std::vector<TupleId> all = db.ActiveTuples(db.RelationId("R"));
    if (all.empty()) continue;
    TupleId victim = all[rng.Below(all.size())];
    db.SetActive(victim, false);
    ResilienceResult after = ComputeResilienceExact(q, db);
    EXPECT_LE(after.resilience, before.resilience) << "round " << round;
    // And it drops by at most 1: the removed tuple could have been a
    // contingency member.
    EXPECT_GE(after.resilience, before.resilience - 1) << "round " << round;
  }
}

}  // namespace
}  // namespace rescq
