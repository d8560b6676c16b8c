#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cq/parser.h"
#include "db/database.h"
#include "db/delta.h"
#include "db/witness.h"
#include "legacy_witness.h"
#include "util/rng.h"

namespace rescq {
namespace {

TEST(Database, InternIsIdempotent) {
  Database db;
  Value a = db.Intern("a");
  EXPECT_EQ(db.Intern("a"), a);
  EXPECT_NE(db.Intern("b"), a);
  EXPECT_EQ(db.ValueName(a), "a");
  EXPECT_EQ(db.domain_size(), 2);
}

TEST(Database, InternIndexedNamesPrefixUnderscoreNumber) {
  Database db;
  Value c0 = db.InternIndexed("c", 0);
  Value x12 = db.InternIndexed("hub", 12);
  Value neg = db.InternIndexed("v", -3);
  EXPECT_EQ(db.ValueName(c0), "c_0");
  EXPECT_EQ(db.ValueName(x12), "hub_12");
  EXPECT_EQ(db.ValueName(neg), "v_-3");
  EXPECT_EQ(db.Intern("hub_12"), x12);
  EXPECT_EQ(db.InternIndexed("c", 0), c0);
  EXPECT_EQ((std::vector<Value>{c0, x12, neg}), (std::vector<Value>{0, 1, 2}));
}

TEST(Database, RelationsAreNumberedInCreationOrder) {
  Database db;
  Value a = db.Intern("a");
  EXPECT_EQ(db.RelationId("R"), -1);
  EXPECT_EQ(db.AddTuple("S", {a, a}).relation, 0);
  EXPECT_EQ(db.AddTuple("R", {a}).relation, 1);
  EXPECT_EQ(db.AddTuple("S", {a, a}).relation, 0);
  EXPECT_EQ(db.AddRelation("R", 1), 1);
  EXPECT_EQ(db.AddRelation("T", 3), 2);
  EXPECT_EQ(db.RelationId("S"), 0);
  EXPECT_EQ(db.RelationId("T"), 2);
  EXPECT_EQ(db.RelationId("U"), -1);
  EXPECT_EQ(db.num_relations(), 3);
  EXPECT_FALSE(db.FindTuple("U", {a}).has_value());
}

TEST(Database, ManyRelationsResolveByName) {
  // Past the handful of relations a scan covers, names resolve through
  // the hash: every relation keeps its creation-order id, both before
  // and after the switch, and a duplicate insert finds its first row.
  Database db;
  Value a = db.Intern("a");
  const int kRelations = 40;
  for (int i = 0; i < kRelations; ++i) {
    const std::string name = "Rel" + std::to_string(i);
    EXPECT_EQ(db.AddTuple(name, {a}).relation, i);
    for (int j = 0; j <= i; ++j) {
      ASSERT_EQ(db.RelationId("Rel" + std::to_string(j)), j) << i;
    }
    EXPECT_EQ(db.RelationId("Rel" + std::to_string(i + 1)), -1) << i;
  }
  EXPECT_EQ(db.num_relations(), kRelations);
  EXPECT_EQ(db.AddTuple("Rel3", {a}), (TupleId{3, 0}));
  EXPECT_EQ(db.AddRelation("Rel39", 1), 39);
  EXPECT_EQ(db.FindTuple("Rel17", {a}), (TupleId{17, 0}));
  EXPECT_FALSE(db.FindTuple("Rel40", {a}).has_value());
  EXPECT_EQ(db.NumActiveTuples(), kRelations);
}

TEST(Database, AddTupleDedups) {
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  TupleId t1 = db.AddTuple("R", {a, b});
  TupleId t2 = db.AddTuple("R", {a, b});
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(db.NumRows(t1.relation), 1);
  EXPECT_EQ(db.TupleToString(t1), "R(a,b)");
}

TEST(Database, ActiveFlags) {
  Database db;
  Value a = db.Intern("a");
  TupleId t = db.AddTuple("R", {a});
  EXPECT_TRUE(db.IsActive(t));
  db.SetActive(t, false);
  EXPECT_FALSE(db.IsActive(t));
  EXPECT_EQ(db.NumActiveTuples(), 0);
  db.ActivateAll();
  EXPECT_TRUE(db.IsActive(t));
}

TEST(Database, FindTuple) {
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  db.AddTuple("R", {a, b});
  EXPECT_TRUE(db.FindTuple("R", {a, b}).has_value());
  EXPECT_FALSE(db.FindTuple("R", {b, a}).has_value());
  EXPECT_FALSE(db.FindTuple("S", {a}).has_value());
}

TEST(Database, FindTupleByNamesNeverInterns) {
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  TupleId ab = db.AddTuple("R", {a, b});
  EXPECT_EQ(db.FindTupleByNames("R", {"a", "b"}), ab);
  EXPECT_FALSE(db.FindTupleByNames("R", {"b", "a"}).has_value());
  EXPECT_FALSE(db.FindTupleByNames("R", {"a", "never_seen"}).has_value());
  EXPECT_FALSE(db.FindTupleByNames("S", {"a"}).has_value());
  EXPECT_EQ(db.domain_size(), 2);
}

TEST(Database, DeletingAnAbsentFactKeepsTheDomain) {
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  TupleId ab = db.AddTuple("R", {a, b});
  for (int i = 0; i < 100; ++i) {
    Update u;
    u.kind = UpdateKind::kDelete;
    u.relation = i % 2 == 0 ? "R" : "S";
    u.constants = {"gone_" + std::to_string(i), "b"};
    EXPECT_FALSE(ApplyUpdate(u, &db).has_value());
  }
  EXPECT_EQ(db.domain_size(), 2);
  EXPECT_TRUE(db.IsActive(ab));
  EXPECT_EQ(db.NumActiveTuples(), 1);
}

TEST(Database, ActiveCountMatchesARecountUnderRandomFlips) {
  // NumActiveTuples is a maintained count: after every random insert
  // (fresh or duplicate), activity flip (including no-op flips) and
  // ActivateAll it must equal a recount over every row.
  Rng rng(0xAC71);
  Database db;
  std::vector<TupleId> ids;
  auto recount = [&db] {
    int n = 0;
    for (int rel = 0; rel < db.num_relations(); ++rel) {
      n += static_cast<int>(db.ActiveTuples(rel).size());
    }
    return n;
  };
  for (int step = 0; step < 2000; ++step) {
    const uint64_t op = rng.Below(10);
    if (op < 3 || ids.empty()) {
      const char* rel = rng.Chance(1, 2) ? "R" : "S";
      ids.push_back(db.AddTuple(
          rel, {db.InternIndexed("v", static_cast<int>(rng.Below(12))),
                db.InternIndexed("v", static_cast<int>(rng.Below(12)))}));
    } else if (op < 9) {
      db.SetActive(ids[rng.Below(ids.size())], rng.Chance(1, 2));
    } else if (rng.Chance(1, 10)) {
      db.ActivateAll();
    }
    ASSERT_EQ(db.NumActiveTuples(), recount()) << "step " << step;
  }
}

TEST(Database, FlatRowIndexAgreesWithAMapReference) {
  // Each relation's rows sit in one arity-strided array behind an
  // open-addressing index of row ids. Unary, binary and ternary
  // relations grow past several index resizes under a seeded stream of
  // inserts (fresh and duplicate) and deactivations; every lookup must
  // agree with a std::map reference, and lookups never intern.
  constexpr int kDomain = 40;
  const std::vector<std::pair<std::string, int>> relations = {
      {"U", 1}, {"B", 2}, {"T", 3}};
  Rng rng(0xF1A7);
  Database db;
  for (int i = 0; i < kDomain; ++i) db.InternIndexed("v", i);
  std::map<std::pair<std::string, std::vector<Value>>, TupleId> reference;
  std::map<std::string, int> rows_of;
  std::vector<TupleId> ids;
  std::map<TupleId, bool> active;
  auto random_row = [&](int arity) {
    std::vector<Value> row;
    for (int c = 0; c < arity; ++c) {
      row.push_back(static_cast<Value>(rng.Below(kDomain)));
    }
    return row;
  };
  auto names = [&](const std::vector<Value>& row) {
    std::vector<std::string> out;
    for (Value v : row) out.push_back(db.ValueName(v));
    return out;
  };
  for (int step = 0; step < 3000; ++step) {
    const auto& [rel, arity] = relations[rng.Below(relations.size())];
    if (rng.Chance(1, 4) && !ids.empty()) {
      const TupleId t = ids[rng.Below(ids.size())];
      db.SetActive(t, false);
      active[t] = false;
      continue;
    }
    const std::vector<Value> row = random_row(arity);
    const TupleId t = db.AddTuple(rel, row);
    auto [it, inserted] = reference.emplace(std::make_pair(rel, row), t);
    if (inserted) {
      EXPECT_EQ(t.row, rows_of[rel]++) << "ids follow insertion order";
      ids.push_back(t);
      active[t] = true;
    } else {
      EXPECT_EQ(t, it->second) << "a duplicate insert returns the first id";
    }
    // A probe for a random row of the same relation, present or not.
    const std::vector<Value> probe = random_row(arity);
    auto want = reference.find(std::make_pair(rel, probe));
    const std::optional<TupleId> got = db.FindTuple(rel, probe);
    ASSERT_EQ(got.has_value(), want != reference.end()) << "step " << step;
    if (got.has_value()) {
      EXPECT_EQ(*got, want->second);
    }
  }
  for (const auto& [rel, arity] : relations) {
    ASSERT_GE(rows_of[rel], 40) << rel;  // several resizes from 8 slots
    EXPECT_EQ(db.NumRows(db.RelationId(rel)), rows_of[rel]) << rel;
  }
  for (const auto& [key, t] : reference) {
    const auto& [rel, row] = key;
    EXPECT_EQ(db.FindTuple(rel, row), t);
    EXPECT_EQ(db.FindTupleByNames(rel, names(row)), t);
    const RowView view = db.Row(t);
    EXPECT_EQ(std::vector<Value>(view.begin(), view.end()), row);
    EXPECT_EQ(db.IsActive(t), active[t]);
  }
  // A lookup with the wrong number of values finds nothing, even where
  // a prefix or an extension of it is stored.
  const Value v0 = db.Intern("v_0");
  for (const auto& [rel, arity] : relations) {
    EXPECT_FALSE(db.FindTuple(rel, {}).has_value()) << rel;
    EXPECT_FALSE(
        db.FindTuple(rel, std::vector<Value>(arity + 1, v0)).has_value())
        << rel;
    EXPECT_FALSE(
        db.FindTupleByNames(rel, std::vector<std::string>(arity + 1, "v_0"))
            .has_value())
        << rel;
  }
  EXPECT_FALSE(db.FindTupleByNames("B", {"v_0", "unseen"}).has_value());
  EXPECT_FALSE(db.FindTupleByNames("Z", {"v_0"}).has_value());
  EXPECT_EQ(db.domain_size(), kDomain);
}

// Builds the Section 2 example: qchain over
// D = {t1: R(1,2), t2: R(2,3), t3: R(3,3)}.
Database ChainExample(TupleId* t1, TupleId* t2, TupleId* t3) {
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  *t1 = db.AddTuple("R", {v1, v2});
  *t2 = db.AddTuple("R", {v2, v3});
  *t3 = db.AddTuple("R", {v3, v3});
  return db;
}

TEST(Witness, PaperChainExample) {
  // witnesses(D, qchain) = {(1,2,3), (2,3,3), (3,3,3)} with tuple sets
  // {t1,t2}, {t2,t3}, {t3} (Section 2).
  TupleId t1, t2, t3;
  Database db = ChainExample(&t1, &t2, &t3);
  Query q = MustParseQuery("R(x,y), R(y,z)");
  std::vector<Witness> ws = EnumerateWitnesses(q, db, kNoWitnessLimit);
  ASSERT_EQ(ws.size(), 3u);

  std::set<std::vector<std::string>> assignments;
  for (const Witness& w : ws) {
    std::vector<std::string> names;
    for (Value v : w.assignment) names.push_back(db.ValueName(v));
    assignments.insert(names);
  }
  EXPECT_TRUE(assignments.count({"1", "2", "3"}));
  EXPECT_TRUE(assignments.count({"2", "3", "3"}));
  EXPECT_TRUE(assignments.count({"3", "3", "3"}));

  std::vector<std::vector<TupleId>> sets = WitnessTupleSets(q, db);
  std::set<std::vector<TupleId>> expect = {{t1, t2}, {t2, t3}, {t3}};
  EXPECT_EQ(std::set<std::vector<TupleId>>(sets.begin(), sets.end()), expect);
}

TEST(Witness, QueryHolds) {
  TupleId t1, t2, t3;
  Database db = ChainExample(&t1, &t2, &t3);
  Query q = MustParseQuery("R(x,y), R(y,z)");
  EXPECT_TRUE(QueryHolds(q, db));
  // Deleting t2 and t3 leaves only R(1,2): no chain.
  db.SetActive(t2, false);
  db.SetActive(t3, false);
  EXPECT_FALSE(QueryHolds(q, db));
}

TEST(Witness, DeactivationShrinksWitnesses) {
  TupleId t1, t2, t3;
  Database db = ChainExample(&t1, &t2, &t3);
  Query q = MustParseQuery("R(x,y), R(y,z)");
  db.SetActive(t3, false);
  std::vector<Witness> ws = EnumerateWitnesses(q, db, kNoWitnessLimit);
  ASSERT_EQ(ws.size(), 1u);  // only (1,2,3)
  EXPECT_EQ(ws[0].endo_tuples, (std::vector<TupleId>{t1, t2}));
}

TEST(Witness, ExogenousAtomsExcludedFromTupleSets) {
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  TupleId r = db.AddTuple("R", {a, b});
  db.AddTuple("S", {b});
  Query q = MustParseQuery("R(x,y), S^x(y)");
  std::vector<Witness> ws = EnumerateWitnesses(q, db, kNoWitnessLimit);
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws[0].endo_tuples, (std::vector<TupleId>{r}));
  EXPECT_EQ(ws[0].atom_tuples.size(), 2u);
}

TEST(Witness, AllExogenousGivesEmptyTupleSet) {
  Database db;
  Value a = db.Intern("a");
  db.AddTuple("R", {a, a});
  Query q = MustParseQuery("R^x(x,y)");
  std::vector<std::vector<TupleId>> sets = WitnessTupleSets(q, db);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_TRUE(sets[0].empty());
}

TEST(Witness, SelfJoinSharedTupleDeduplicated) {
  // R(a,a) matches both atoms of the chain: one endogenous tuple.
  Database db;
  Value a = db.Intern("a");
  TupleId t = db.AddTuple("R", {a, a});
  Query q = MustParseQuery("R(x,y), R(y,z)");
  std::vector<Witness> ws = EnumerateWitnesses(q, db, kNoWitnessLimit);
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws[0].endo_tuples, (std::vector<TupleId>{t}));
}

TEST(Witness, RepeatedVariableAtomRequiresEqualColumns) {
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  db.AddTuple("R", {a, a});
  db.AddTuple("R", {a, b});
  Query q = MustParseQuery("R(x,x)");
  std::vector<Witness> ws = EnumerateWitnesses(q, db, kNoWitnessLimit);
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(db.ValueName(ws[0].assignment[0]), "a");
}

TEST(Witness, MissingRelationMeansNoWitnesses) {
  Database db;
  db.AddTuple("R", {db.Intern("a")});
  Query q = MustParseQuery("R(x), S(x,y)");
  EXPECT_TRUE(EnumerateWitnesses(q, db, kNoWitnessLimit).empty());
}

TEST(Witness, ArityMismatchMeansNoWitnesses) {
  Database db;
  db.AddTuple("R", {db.Intern("a")});
  Query q = MustParseQuery("R(x,y)");
  EXPECT_TRUE(EnumerateWitnesses(q, db, kNoWitnessLimit).empty());
}

TEST(Witness, LimitCapsEnumeration) {
  Database db;
  for (int i = 0; i < 10; ++i) {
    db.AddTuple("R", {db.InternIndexed("a", i)});
  }
  Query q = MustParseQuery("R(x)");
  EXPECT_EQ(EnumerateWitnesses(q, db, 3).size(), 3u);
}

TEST(Witness, CrossProductDisconnectedQuery) {
  Database db;
  Value a1 = db.Intern("a1"), a2 = db.Intern("a2");
  Value b1 = db.Intern("b1");
  db.AddTuple("A", {a1});
  db.AddTuple("A", {a2});
  db.AddTuple("B", {b1});
  Query q = MustParseQuery("A(x), B(y)");
  EXPECT_EQ(EnumerateWitnesses(q, db, kNoWitnessLimit).size(), 2u);
}

TEST(Witness, TriangleQuery) {
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("S", {v2, v3});
  db.AddTuple("T", {v3, v1});
  db.AddTuple("R", {v2, v3});  // irrelevant extra
  Query q = MustParseQuery("R(x,y), S(y,z), T(z,x)");
  std::vector<Witness> ws = EnumerateWitnesses(q, db, kNoWitnessLimit);
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws[0].endo_tuples.size(), 3u);
}

}  // namespace
}  // namespace rescq
