// Property tests for the witness engine: every enumerated witness must be
// internally consistent, enumeration must be complete against a naive
// reference evaluator, and deactivation must behave like set difference.

#include <gtest/gtest.h>

#include <set>

#include "complexity/catalog.h"
#include "cq/parser.h"
#include "db/witness.h"
#include "legacy_witness.h"
#include "util/rng.h"
#include "workload/scenario.h"

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

// Naive reference: enumerate all |domain|^|vars| assignments and test
// each atom by scanning the relation.
std::set<std::vector<Value>> ReferenceWitnesses(const Query& q,
                                                const Database& db) {
  std::set<std::vector<Value>> out;
  std::vector<Value> domain_values;
  for (Value v = 0; v < db.domain_size(); ++v) domain_values.push_back(v);
  std::vector<Value> assignment(static_cast<size_t>(q.num_vars()), 0);
  std::function<void(int)> rec = [&](int var) {
    if (var == q.num_vars()) {
      for (const Atom& atom : q.atoms()) {
        int rel = db.RelationId(atom.relation);
        if (rel < 0 || db.relation_arity(rel) != atom.arity()) return;
        std::vector<Value> want;
        for (VarId v : atom.vars) {
          want.push_back(assignment[static_cast<size_t>(v)]);
        }
        std::optional<TupleId> t = db.FindTuple(atom.relation, want);
        if (!t.has_value() || !db.IsActive(*t)) return;
      }
      out.insert(assignment);
      return;
    }
    for (Value v : domain_values) {
      assignment[static_cast<size_t>(var)] = v;
      rec(var + 1);
    }
  };
  rec(0);
  return out;
}

class WitnessCompleteness : public ::testing::TestWithParam<const char*> {};

TEST_P(WitnessCompleteness, MatchesNaiveEvaluator) {
  Query q = MustParseQuery(GetParam());
  Rng rng(std::hash<std::string>()(GetParam()));
  for (int trial = 0; trial < 10; ++trial) {
    Database db = RandomDatabase(q, 4, 7, rng);
    std::vector<Witness> ws = EnumerateWitnesses(q, db, kNoWitnessLimit);
    std::set<std::vector<Value>> got;
    for (const Witness& w : ws) got.insert(w.assignment);
    EXPECT_EQ(got.size(), ws.size()) << "duplicate witnesses";
    EXPECT_EQ(got, ReferenceWitnesses(q, db)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, WitnessCompleteness,
    ::testing::Values("R(x,y), R(y,z)", "R(x), S(x,y), R(y)",
                      "R(x,y), S(y,z), T(z,x)", "A(x), R(x,y), R(y,x)",
                      "R(x,x), R(x,y), A(y)",
                      "A(x), R(x,y), R(y,z), R(z,z)",
                      "T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return "q" + std::to_string(info.index);
    });

TEST(WitnessConsistency, EveryWitnessTupleMatchesItsAtom) {
  Query q = MustParseQuery("A(x), R(x,y), R(y,z), R(z,y)");
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Database db = RandomDatabase(q, 5, 10, rng);
    for (const Witness& w : EnumerateWitnesses(q, db, kNoWitnessLimit)) {
      for (int i = 0; i < q.num_atoms(); ++i) {
        const Atom& atom = q.atom(i);
        TupleId t = w.atom_tuples[static_cast<size_t>(i)];
        ASSERT_TRUE(db.IsActive(t));
        const std::vector<Value>& row = db.Row(t);
        ASSERT_EQ(static_cast<int>(row.size()), atom.arity());
        for (int c = 0; c < atom.arity(); ++c) {
          EXPECT_EQ(row[static_cast<size_t>(c)],
                    w.assignment[static_cast<size_t>(
                        atom.vars[static_cast<size_t>(c)])]);
        }
      }
    }
  }
}

TEST(WitnessDeactivation, BehavesLikeSetDifference) {
  Query q = MustParseQuery("R(x,y), R(y,z)");
  Rng rng(11);
  Database db = RandomDatabase(q, 5, 15, rng);
  std::vector<Witness> all = EnumerateWitnesses(q, db, kNoWitnessLimit);
  // Deactivate one tuple; surviving witnesses = those not using it.
  ASSERT_FALSE(all.empty());
  TupleId victim = all.front().endo_tuples.front();
  db.SetActive(victim, false);
  std::set<std::vector<Value>> got;
  for (const Witness& w : EnumerateWitnesses(q, db, kNoWitnessLimit)) {
    got.insert(w.assignment);
  }
  std::set<std::vector<Value>> expect;
  for (const Witness& w : all) {
    bool uses = false;
    for (TupleId t : w.atom_tuples) uses = uses || t == victim;
    if (!uses) expect.insert(w.assignment);
  }
  EXPECT_EQ(got, expect);
}

TEST(WitnessTupleSets, SupersetsAreFineSubsetsDecide) {
  // Tuple-set family from a db where one witness's set strictly contains
  // another's: resilience equals hitting the smaller one.
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  db.AddTuple("R", {a, a});          // witness (a,a,a): {R(a,a)}
  db.AddTuple("R", {a, b});          // witness (a,a,b)... (a,b,?) none
  Query q = MustParseQuery("R(x,y), R(y,z)");
  std::vector<std::vector<TupleId>> sets = WitnessTupleSets(q, db);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].size() + sets[1].size(), 3u);  // sizes 1 and 2
}

TEST(WitnessStreaming, ForEachMatchesEnumerate) {
  Query q = MustParseQuery("A(x), R(x,y), R(y,z), R(z,y)");
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    Database db = RandomDatabase(q, 5, 10, rng);
    std::vector<Witness> materialized = EnumerateWitnesses(q, db, kNoWitnessLimit);
    std::vector<std::vector<Value>> streamed;
    bool complete = ForEachWitness(q, db, [&](const Witness& w) {
      streamed.push_back(w.assignment);
      return true;
    });
    EXPECT_TRUE(complete);
    ASSERT_EQ(streamed.size(), materialized.size());
    for (size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(streamed[i], materialized[i].assignment);
    }
  }
}

TEST(WitnessStreaming, CallbackStopsEnumerationEarly) {
  Database db;
  for (int i = 0; i < 100; ++i) {
    db.AddTuple("R", {db.InternIndexed("a", i)});
  }
  Query q = MustParseQuery("R(x)");
  int seen = 0;
  bool complete = ForEachWitness(q, db, [&](const Witness&) {
    return ++seen < 7;
  });
  EXPECT_FALSE(complete);
  EXPECT_EQ(seen, 7);
}

TEST(WitnessStreaming, FamilyCollectionDeduplicatesOnTheFly) {
  // Two witnesses share one endogenous tuple-set (the exogenous S atom
  // varies): the family has one set, but two witnesses were seen.
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b"), c = db.Intern("c");
  db.AddTuple("R", {a, b});
  db.AddTuple("S", {b, b});
  db.AddTuple("S", {b, c});
  Query q = MustParseQuery("R(x,y), S^x(y,z)");
  WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
  EXPECT_EQ(family.witnesses, 2u);
  ASSERT_EQ(family.sets.size(), 1u);
  EXPECT_EQ(family.sets[0].len, 1u);
  EXPECT_EQ(
      WitnessTupleSets(q, db),
      family.Materialize());
}

TEST(WitnessScale, LargeChainInstanceEnumerates) {
  // A path graph of 400 edges: 399 witnesses, no blow-up.
  Database db;
  Query q = MustParseQuery("R(x,y), R(y,z)");
  for (int i = 0; i < 400; ++i) {
    db.AddTuple("R", {db.InternIndexed("n", i), db.InternIndexed("n", i + 1)});
  }
  EXPECT_EQ(EnumerateWitnesses(q, db, kNoWitnessLimit).size(), 399u);
}

TEST(WitnessScale, ArenaHoldsAtMostHalfTheLegacyBytes) {
  // The serving-shaped workloads: sparse ER vertex cover (many small
  // components) and a dense permutation instance (density 8 puts ~8
  // noise edges per node on the permutation, so q_perm's mutual pairs
  // number in the dozens). The span arena must hold at most half the
  // bytes of the legacy per-set vectors plus their dedup index.
  constexpr double kMinReduction = 2.0;
  struct Workload {
    const char* scenario;
    int size;
    double density;
  };
  for (const Workload& w :
       {Workload{"vc_er", 1200, 0.00075}, Workload{"perm", 64, 8.0}}) {
    const Scenario* scenario = FindScenario(w.scenario);
    ASSERT_NE(scenario, nullptr) << w.scenario;
    Database db = scenario->generate({w.size, w.density, 1});
    WitnessFamily family = CollectWitnessFamily(
        MustParseQuery(scenario->query), db, kNoWitnessLimit);
    ASSERT_GT(family.size(), 0u) << w.scenario;
    const double ratio =
        static_cast<double>(LegacyFamilyBytes(family.Materialize())) /
        static_cast<double>(family.ApproxBytes());
    EXPECT_GE(ratio, kMinReduction) << w.scenario;
  }
}

}  // namespace
}  // namespace rescq
