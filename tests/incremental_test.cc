// The incremental resilience subsystem: delta witness enumeration, the
// update log and its file round trip, churn generation, the stream
// runner, and — above all — IncrementalSession's metamorphic
// properties: resilience is monotone non-increasing under endogenous
// deletion, non-decreasing under insertion, invariant under
// insert-then-delete of one fact, and exogenous churn never drops it
// below the maintained lower bound.

#include "resilience/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "cq/parser.h"
#include "db/database.h"
#include "db/delta.h"
#include "db/tuple_io.h"
#include "db/witness.h"
#include "resilience/exact_solver.h"
#include "resilience/solver.h"
#include "util/rng.h"
#include "workload/churn.h"
#include "workload/generators.h"
#include "workload/scenario.h"
#include "workload/stream.h"

namespace rescq {
namespace {

Update MakeUpdate(UpdateKind kind, const std::string& relation,
                  std::vector<std::string> constants) {
  Update u;
  u.kind = kind;
  u.relation = relation;
  u.constants = std::move(constants);
  return u;
}

Epoch OneUpdate(UpdateKind kind, const std::string& relation,
                std::vector<std::string> constants) {
  Epoch e;
  e.updates.push_back(MakeUpdate(kind, relation, std::move(constants)));
  return e;
}

// --- delta witness enumeration ---------------------------------------------

// Reference: all witnesses incident to `changed` = full enumeration
// filtered by atom_tuples membership.
std::vector<std::vector<TupleId>> IncidentWitnessAtoms(
    const Query& q, const Database& db, const std::vector<TupleId>& changed) {
  std::set<TupleId> set(changed.begin(), changed.end());
  std::vector<std::vector<TupleId>> out;
  ForEachWitness(q, db, [&](const Witness& w) {
    for (TupleId t : w.atom_tuples) {
      if (set.count(t) > 0) {
        out.push_back(w.atom_tuples);
        break;
      }
    }
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DeltaWitness, VisitsExactlyTheIncidentWitnessesOnce) {
  // A self-join query, so one changed tuple can match several atoms and
  // one witness can use several changed tuples.
  Query q = MustParseQuery("R(x,y), R(y,z)");
  Rng rng(0xDE17A);
  for (int round = 0; round < 30; ++round) {
    Database db;
    std::vector<Value> dom;
    for (int i = 0; i < 5; ++i) dom.push_back(db.InternIndexed("c", i));
    for (int t = 0; t < 10; ++t) {
      db.AddTuple("R", {dom[rng.Below(5)], dom[rng.Below(5)]});
    }
    std::vector<TupleId> all = db.ActiveTuples(db.RelationId("R"));
    std::vector<TupleId> changed;
    for (TupleId t : all) {
      if (rng.Chance(1, 3)) changed.push_back(t);
    }
    if (rng.Chance(1, 4) && !changed.empty()) {
      changed.push_back(changed[0]);  // duplicates must collapse
    }
    std::vector<std::vector<TupleId>> seen;
    WitnessIndex(q, db).ForEachDelta(changed, [&](const Witness& w) {
      seen.push_back(w.atom_tuples);
      return true;
    });
    std::sort(seen.begin(), seen.end());
    // Exactly once: equality as sorted multisets catches both misses
    // and double visits.
    EXPECT_EQ(seen, IncidentWitnessAtoms(q, db, changed))
        << "round " << round;
  }
}

TEST(DeltaWitness, EmptyChangeSetAndInactiveTuplesYieldNothing) {
  Query q = MustParseQuery("R(x,y), R(y,z)");
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b"), c = db.Intern("c");
  TupleId ab = db.AddTuple("R", {a, b});
  db.AddTuple("R", {b, c});
  WitnessIndex index(q, db);
  int visits = 0;
  index.ForEachDelta({}, [&](const Witness&) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);
  db.SetActive(ab, false);  // an activity flip needs no sync
  index.ForEachDelta({ab}, [&](const Witness&) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);
}

TEST(DeltaWitness, CallbackCanStopEnumeration) {
  Query q = MustParseQuery("R(x,y)");
  Database db;
  Value a = db.Intern("a");
  std::vector<TupleId> rows;
  for (int i = 0; i < 4; ++i) {
    rows.push_back(db.AddTuple("R", {a, db.InternIndexed("b", i)}));
  }
  int visits = 0;
  WitnessIndex index(q, db);
  bool complete = index.ForEachDelta(rows, [&](const Witness&) {
    ++visits;
    return visits < 2;
  });
  EXPECT_FALSE(complete);
  EXPECT_EQ(visits, 2);
}

TEST(WitnessIndex, SyncPicksUpAppendedRowsAndLateRelations) {
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  db.AddTuple("R", {a});
  db.AddTuple("R", {b});
  WitnessIndex index(q, db);  // S does not exist yet
  int count = 0;
  index.ForEach([&](const Witness&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0);

  TupleId sab = db.AddTuple("S", {a, b});
  index.SyncNewRows();  // resolves the late relation
  index.ForEach([&](const Witness&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);

  Value c = db.Intern("c");
  db.AddTuple("R", {c});
  TupleId sbc = db.AddTuple("S", {b, c});
  index.SyncNewRows();
  count = 0;
  index.ForEachDelta({sbc}, [&](const Witness&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
  count = 0;
  index.ForEachDelta({sab, sbc}, [&](const Witness&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2);
}

TEST(WitnessIndex, SyncedIndexEnumeratesInTheSameOrderAsAFreshOne) {
  // A self-join plus a relation that only appears in round 1. Each round
  // appends rows (over constants interned after the index was built),
  // syncs, then deactivates; the synced index must then visit exactly
  // the witnesses a fresh enumeration visits, in the same order.
  Query q = MustParseQuery("R(x,y), R(y,z), S(z,x)");
  Rng rng(0x5EC7);
  Database db;
  std::vector<Value> dom;
  for (int i = 0; i < 3; ++i) dom.push_back(db.InternIndexed("c", i));
  db.AddTuple("R", {dom[0], dom[1]});
  WitnessIndex index(q, db);  // S does not exist yet
  auto atom_tuples = [](auto&& for_each) {
    std::vector<std::vector<TupleId>> seen;
    for_each([&](const Witness& w) {
      seen.push_back(w.atom_tuples);
      return true;
    });
    return seen;
  };
  size_t witnesses = 0;
  for (int round = 0; round < 12; ++round) {
    dom.push_back(db.InternIndexed("c", static_cast<int>(dom.size())));
    const uint64_t n = dom.size();
    for (int t = 0; t < 6; ++t) {
      const char* rel = round >= 1 && rng.Chance(1, 3) ? "S" : "R";
      db.AddTuple(rel, {dom[rng.Below(n)], dom[rng.Below(n)]});
    }
    index.SyncNewRows();
    for (int r = 0; r < db.num_relations(); ++r) {
      for (TupleId t : db.ActiveTuples(r)) {
        if (rng.Chance(1, 8)) db.SetActive(t, false);
      }
    }
    std::vector<std::vector<TupleId>> synced = atom_tuples(
        [&](WitnessVisitor visit) { return index.ForEach(visit); });
    std::vector<std::vector<TupleId>> fresh = atom_tuples(
        [&](WitnessVisitor visit) { return ForEachWitness(q, db, visit); });
    EXPECT_EQ(synced, fresh) << "round " << round;
    witnesses += fresh.size();
  }
  EXPECT_GT(witnesses, 0u);  // the rounds exercised a non-empty family
}

// --- update log, application, and file round trip --------------------------

TEST(UpdateLog, ApplyInsertDeleteSemantics) {
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  TupleId ab = db.AddTuple("R", {a, b});

  // Insert of an existing active fact: no-op.
  EXPECT_FALSE(
      ApplyUpdate(MakeUpdate(UpdateKind::kInsert, "R", {"a", "b"}), &db)
          .has_value());
  // Delete deactivates; repeated delete is a no-op.
  std::optional<TupleId> del =
      ApplyUpdate(MakeUpdate(UpdateKind::kDelete, "R", {"a", "b"}), &db);
  ASSERT_TRUE(del.has_value());
  EXPECT_EQ(*del, ab);
  EXPECT_FALSE(db.IsActive(ab));
  EXPECT_FALSE(
      ApplyUpdate(MakeUpdate(UpdateKind::kDelete, "R", {"a", "b"}), &db)
          .has_value());
  // Reinsert reactivates the same tuple id.
  std::optional<TupleId> re =
      ApplyUpdate(MakeUpdate(UpdateKind::kInsert, "R", {"a", "b"}), &db);
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ(*re, ab);
  EXPECT_TRUE(db.IsActive(ab));
  // Delete of an unknown fact / relation: no-op.
  EXPECT_FALSE(
      ApplyUpdate(MakeUpdate(UpdateKind::kDelete, "R", {"b", "a"}), &db)
          .has_value());
  EXPECT_FALSE(
      ApplyUpdate(MakeUpdate(UpdateKind::kDelete, "Q", {"a"}), &db)
          .has_value());
}

TEST(UpdateLog, ValidateCatchesArityMismatches) {
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  UpdateLog log;
  log.epochs.push_back(OneUpdate(UpdateKind::kInsert, "R", {"c"}));
  std::string error;
  EXPECT_FALSE(ValidateUpdateLog(log, db, &error));
  EXPECT_NE(error.find("arity"), std::string::npos);

  UpdateLog self_inconsistent;
  self_inconsistent.epochs.push_back(
      OneUpdate(UpdateKind::kInsert, "T", {"a", "b"}));
  self_inconsistent.epochs.push_back(OneUpdate(UpdateKind::kDelete, "T", {"a"}));
  EXPECT_FALSE(ValidateUpdateLog(self_inconsistent, db, &error));

  UpdateLog ok;
  ok.epochs.push_back(OneUpdate(UpdateKind::kInsert, "R", {"c", "d"}));
  ok.epochs.push_back(OneUpdate(UpdateKind::kInsert, "T", {"a"}));
  EXPECT_TRUE(ValidateUpdateLog(ok, db, &error)) << error;
}

TEST(UpdateLog, FileRoundTrip) {
  UpdateLog log;
  Epoch e1;
  e1.updates.push_back(MakeUpdate(UpdateKind::kInsert, "R", {"a", "b"}));
  e1.updates.push_back(MakeUpdate(UpdateKind::kDelete, "S", {"c"}));
  Epoch e2;  // deliberately empty epoch survives the round trip
  Epoch e3;
  e3.updates.push_back(MakeUpdate(UpdateKind::kInsert, "R", {"b", "c"}));
  log.epochs = {e1, e2, e3};

  std::ostringstream out;
  WriteUpdates(log, out, "header line");
  UpdateLog back;
  std::string error;
  std::istringstream in(out.str());
  ASSERT_TRUE(ReadUpdates(in, "<test>", &back, &error)) << error;
  EXPECT_EQ(log, back);
}

TEST(UpdateLog, ReadRejectsMalformedInput) {
  auto read = [](const std::string& text, std::string* error) {
    UpdateLog log;
    std::istringstream in(text);
    return ReadUpdates(in, "<test>", &log, error);
  };
  std::string error;
  EXPECT_FALSE(read("R(a,b)\n", &error));  // missing sign
  EXPECT_NE(error.find("<test>:1"), std::string::npos);
  EXPECT_FALSE(read("+ R(a,b)\n- R(c)\n", &error));  // arity flip
  EXPECT_NE(error.find("<test>:2"), std::string::npos);
  EXPECT_FALSE(read("+ lower(a)\n", &error));  // bad relation
  EXPECT_FALSE(read("epoch + R(a,b)\n", &error));  // fact on marker line

  // Signs may be attached, epochs labeled (including '-' in the
  // label), comments interleaved.
  UpdateLog log;
  std::istringstream in("# c\nepoch warm-up\n+R(a, b)\n-S(c)\n");
  ASSERT_TRUE(ReadUpdates(in, "<test>", &log, &error)) << error;
  ASSERT_EQ(log.epochs.size(), 1u);
  ASSERT_EQ(log.epochs[0].updates.size(), 2u);
  EXPECT_EQ(log.epochs[0].updates[0].kind, UpdateKind::kInsert);
  EXPECT_EQ(log.epochs[0].updates[1].kind, UpdateKind::kDelete);
}

// --- incremental session ----------------------------------------------------

// From-scratch answer over the session's current database.
ResilienceResult Scratch(const IncrementalSession& session) {
  return ComputeResilienceExact(session.query(), session.db());
}

void ExpectMatchesScratch(const IncrementalSession& session,
                          const EpochOutcome& out, const std::string& where) {
  ResilienceResult exact = Scratch(session);
  EXPECT_EQ(out.unbreakable, exact.unbreakable) << where;
  if (!exact.unbreakable) {
    EXPECT_EQ(out.resilience, exact.resilience) << where;
    EXPECT_EQ(static_cast<int>(out.contingency.size()), out.resilience)
        << where;
    Database copy = session.db();
    EXPECT_TRUE(VerifyContingency(session.query(), copy, out.contingency))
        << where;
    EXPECT_LE(out.lower_bound, out.resilience) << where;
    EXPECT_EQ(out.upper_bound, out.resilience) << where;
  }
}

TEST(IncrementalSession, InitialBuildMatchesExact) {
  ScenarioParams params;
  params.size = 12;
  params.seed = 3;
  Database db = GenerateErdosRenyiVC(params);
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  IncrementalSession session(q, db, ExactOptions{});
  EXPECT_EQ(session.Peek().epoch, 0);
  EXPECT_GT(session.Peek().family_sets, 0u);
  ExpectMatchesScratch(session, session.Peek(), "initial");
}

TEST(IncrementalSession, MonotoneNonIncreasingUnderEndogenousDeletion) {
  ScenarioParams params;
  params.size = 10;
  params.seed = 7;
  Database db = GenerateErdosRenyiVC(params);
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  IncrementalSession session(q, db, ExactOptions{});
  ChurnParams churn;
  churn.epochs = 8;
  churn.rate = 0.1;
  churn.seed = 5;
  UpdateLog log = GenerateChurn(db, "delete", churn);
  int previous = session.Peek().resilience;
  for (const Epoch& epoch : log.epochs) {
    EpochOutcome out = session.Apply(epoch);
    ASSERT_FALSE(out.unbreakable);
    EXPECT_LE(out.resilience, previous);
    ExpectMatchesScratch(session, out, "delete epoch");
    previous = out.resilience;
  }
}

TEST(IncrementalSession, MonotoneNonDecreasingUnderInsertion) {
  ScenarioParams params;
  params.size = 10;
  params.seed = 11;
  Database db = GenerateErdosRenyiVC(params);
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  IncrementalSession session(q, db, ExactOptions{});
  ChurnParams churn;
  churn.epochs = 6;
  churn.rate = 0.1;
  churn.seed = 6;
  UpdateLog log = GenerateChurn(db, "insert", churn);
  int previous = session.Peek().resilience;
  for (const Epoch& epoch : log.epochs) {
    EpochOutcome out = session.Apply(epoch);
    // Insertion can only add witnesses: the minimum hitting set grows
    // or, if an all-exogenous witness appeared, becomes undefined —
    // which this query (all atoms endogenous) cannot produce.
    ASSERT_FALSE(out.unbreakable);
    EXPECT_GE(out.resilience, previous);
    ExpectMatchesScratch(session, out, "insert epoch");
    previous = out.resilience;
  }
}

TEST(IncrementalSession, InsertThenDeleteOfOneFactIsInvariant) {
  Query q = MustParseQuery("R(x,y), R(y,z)");
  Database db;
  std::string error;
  ASSERT_TRUE(LoadTupleFile("data/section2_chain.tuples", &db, &error) ||
              LoadTupleFile("../data/section2_chain.tuples", &db, &error))
      << error;
  IncrementalSession session(q, db, ExactOptions{});
  const EpochOutcome before = session.Peek();

  // Same epoch: nets to nothing.
  Epoch both;
  both.updates.push_back(MakeUpdate(UpdateKind::kInsert, "R", {"z", "x"}));
  both.updates.push_back(MakeUpdate(UpdateKind::kDelete, "R", {"z", "x"}));
  EpochOutcome out = session.Apply(both);
  EXPECT_EQ(out.inserted, 0);
  EXPECT_EQ(out.deleted, 0);
  EXPECT_EQ(out.resilience, before.resilience);
  ExpectMatchesScratch(session, out, "same-epoch net");

  // Consecutive epochs: back to the starting answer.
  session.Apply(OneUpdate(UpdateKind::kInsert, "R", {"z", "x"}));
  out = session.Apply(OneUpdate(UpdateKind::kDelete, "R", {"z", "x"}));
  EXPECT_EQ(out.resilience, before.resilience);
  EXPECT_EQ(out.contingency.size(), before.contingency.size());
  ExpectMatchesScratch(session, out, "two-epoch net");
}

TEST(IncrementalSession, DeletingAbsentFactsKeepsTheDomainAndTheAnswer) {
  // A stream of deletes of facts the session never saw must not grow
  // its value domain (nothing is interned) or move its answer.
  Query q = MustParseQuery("R(x,y), R(y,z)");
  Database db;
  std::string error;
  ASSERT_TRUE(LoadTupleFile("data/section2_chain.tuples", &db, &error) ||
              LoadTupleFile("../data/section2_chain.tuples", &db, &error))
      << error;
  IncrementalSession session(q, db, ExactOptions{});
  const EpochOutcome before = session.Peek();
  const int domain = session.db().domain_size();
  for (int i = 0; i < 50; ++i) {
    Epoch e;
    e.updates.push_back(MakeUpdate(UpdateKind::kDelete, "R",
                                   {"never_" + std::to_string(i), "x"}));
    e.updates.push_back(MakeUpdate(UpdateKind::kDelete, "Q",
                                   {"unseen_" + std::to_string(i)}));
    EpochOutcome out = session.Apply(e);
    EXPECT_EQ(out.deleted, 0);
    EXPECT_EQ(out.resilience, before.resilience);
    EXPECT_EQ(out.contingency, before.contingency);
  }
  EXPECT_EQ(session.db().domain_size(), domain);
  ExpectMatchesScratch(session, session.Peek(), "absent deletes");
}

TEST(IncrementalSession, ExogenousChurnRespectsTheLowerBound) {
  // S is exogenous: churning it shifts witness support and can remove
  // or add whole sets, but the answer must track the exact solve and
  // never dip below the maintained certified lower bound.
  Query q = MustParseQuery("A(x), S^x(x,y), A(y)");
  Database db;
  Rng rng(0xE406);
  std::vector<Value> dom;
  for (int i = 0; i < 8; ++i) dom.push_back(db.InternIndexed("v", i));
  for (Value v : dom) db.AddTuple("A", {v});
  for (int t = 0; t < 12; ++t) {
    db.AddTuple("S", {dom[rng.Below(8)], dom[rng.Below(8)]});
  }
  IncrementalSession session(q, db, ExactOptions{});
  Rng churn_rng(0xABCD);
  for (int epoch = 0; epoch < 10; ++epoch) {
    Epoch e;
    for (int u = 0; u < 3; ++u) {
      std::string a = "v_" + std::to_string(churn_rng.Below(8));
      std::string b = "v_" + std::to_string(churn_rng.Below(8));
      e.updates.push_back(MakeUpdate(
          churn_rng.Chance(1, 2) ? UpdateKind::kInsert : UpdateKind::kDelete,
          "S", {a, b}));
    }
    EpochOutcome out = session.Apply(e);
    ASSERT_FALSE(out.unbreakable);
    EXPECT_GE(out.resilience, out.lower_bound) << "epoch " << epoch;
    ExpectMatchesScratch(session, out, "exogenous epoch");
  }
}

TEST(IncrementalSession, UnbreakableAppearsAndResolves) {
  // A query whose only atom is exogenous: any witness at all makes it
  // unbreakable, deleting the last fact makes it false again.
  Query q = MustParseQuery("S^x(x,y)");
  Database db;
  db.AddRelation("S", 2);
  IncrementalSession session(q, db, ExactOptions{});
  EXPECT_FALSE(session.Peek().unbreakable);
  EXPECT_EQ(session.Peek().resilience, 0);

  EpochOutcome out =
      session.Apply(OneUpdate(UpdateKind::kInsert, "S", {"a", "b"}));
  EXPECT_TRUE(out.unbreakable);

  out = session.Apply(OneUpdate(UpdateKind::kDelete, "S", {"a", "b"}));
  EXPECT_FALSE(out.unbreakable);
  EXPECT_EQ(out.resilience, 0);
}

TEST(IncrementalSession, WitnessBudgetPoisonsTheSessionStructurally) {
  ScenarioParams params;
  params.size = 10;
  params.seed = 2;
  Database db = GenerateErdosRenyiVC(params);
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  ExactOptions options;
  options.witness_limit = 3;  // far below the instance's witness count
  IncrementalSession session(q, db, options);
  EXPECT_TRUE(session.Peek().budget_exceeded);
  EXPECT_NE(session.Peek().error.find("witness budget"), std::string::npos);
  // Later epochs keep reporting the structured error.
  EpochOutcome out =
      session.Apply(OneUpdate(UpdateKind::kInsert, "R", {"zz"}));
  EXPECT_TRUE(out.budget_exceeded);
  EXPECT_NE(out.error.find("witness budget"), std::string::npos);
}

TEST(IncrementalSession, NodeBudgetYieldsAVerifiedUpperBound) {
  ScenarioParams params;
  params.size = 14;
  params.density = 0.6;
  params.seed = 4;
  Database db = GenerateErdosRenyiVC(params);
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  ExactOptions options;
  options.node_budget = 1;
  IncrementalSession session(q, db, options);
  const EpochOutcome& out = session.Peek();
  ResilienceResult exact = ComputeResilienceExact(q, session.db());
  ASSERT_FALSE(exact.unbreakable);
  // One node cannot finish this search, and the root bound cannot
  // certify the incumbent either: the budget surfaces.
  ASSERT_TRUE(out.budget_exceeded);
  EXPECT_NE(out.error.find("node budget"), std::string::npos);
  // The certified interval brackets the true optimum.
  EXPECT_EQ(out.upper_bound, out.resilience);
  EXPECT_LE(out.lower_bound, exact.resilience);
  EXPECT_LE(exact.resilience, out.upper_bound);
  // The reported contingency set must still falsify the query.
  Database copy = session.db();
  EXPECT_TRUE(VerifyContingency(q, copy, out.contingency));
}

TEST(IncrementalSession, EvictThenTouchMatchesANeverEvictedTwin) {
  // Cold-state eviction drops only rebuildable state (the WitnessIndex
  // and refresh scratch); every answer after the lazy rebuild must be
  // what a never-evicted twin computes on the same epoch stream, and
  // what a from-scratch solve computes. Inputs: a small q_vc instance
  // under heavy churn, then the serving-shaped workloads — sparse ER
  // vertex cover (many small components) and a dense permutation
  // instance (~8 noise edges per node, so q_perm's mutual pairs number
  // in the dozens) — under 5% mixed churn.
  struct Input {
    const char* scenario;
    ScenarioParams params;
    ChurnParams churn;
  };
  const Input inputs[] = {
      {"vc_er", {12, 0.5, 17}, {8, 0.15, 23}},
      {"vc_er", {1200, 0.00075, 1}, {12, 0.05, 18}},
      {"perm", {64, 8.0, 1}, {12, 0.05, 18}},
  };
  for (const Input& input : inputs) {
    const Scenario* scenario = FindScenario(input.scenario);
    ASSERT_NE(scenario, nullptr) << input.scenario;
    Database db = scenario->generate(input.params);
    Query q = MustParseQuery(scenario->query);
    IncrementalSession evicted(q, db, ExactOptions{});
    IncrementalSession twin(q, db, ExactOptions{});
    UpdateLog log = GenerateChurn(db, "mixed", input.churn);

    EXPECT_TRUE(evicted.index_resident());
    int epoch_index = 0;
    for (const Epoch& epoch : log.epochs) {
      const std::string where = std::string(input.scenario) + " size " +
                                std::to_string(input.params.size) +
                                " epoch " + std::to_string(epoch_index);
      if (epoch_index % 2 == 0) {
        size_t freed = evicted.EvictColdState();
        EXPECT_GT(freed, 0u) << where;
        EXPECT_FALSE(evicted.index_resident());
        EXPECT_EQ(evicted.EvictColdState(), 0u);  // idempotent
        EXPECT_EQ(evicted.ApproxMemory().index_bytes, 0u);
        // Reads keep working from the maintained state while evicted.
        EXPECT_EQ(evicted.Peek().resilience, twin.Peek().resilience);
      }
      EpochOutcome a = evicted.Apply(epoch);
      EpochOutcome b = twin.Apply(epoch);
      EXPECT_TRUE(evicted.index_resident());  // lazily rebuilt
      EXPECT_EQ(a.resilience, b.resilience) << where;
      EXPECT_EQ(a.unbreakable, b.unbreakable) << where;
      EXPECT_EQ(a.lower_bound, b.lower_bound) << where;
      EXPECT_EQ(a.upper_bound, b.upper_bound) << where;
      EXPECT_EQ(a.family_sets, b.family_sets) << where;
      EXPECT_EQ(a.contingency, b.contingency) << where;
      ExpectMatchesScratch(evicted, a, where);
      ++epoch_index;
    }
    const uint64_t evictions = (log.epochs.size() + 1) / 2;
    EXPECT_EQ(evicted.evictions(), evictions);
    EXPECT_EQ(evicted.rebuilds(), evictions);
    EXPECT_EQ(twin.evictions(), 0u);
    EXPECT_EQ(twin.rebuilds(), 0u);
  }
}

TEST(IncrementalSession, EvictionOnAPoisonedSessionStaysPoisoned) {
  ScenarioParams params;
  params.size = 10;
  params.seed = 2;
  Database db = GenerateErdosRenyiVC(params);
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  ExactOptions options;
  options.witness_limit = 3;
  IncrementalSession session(q, db, options);
  ASSERT_TRUE(session.poisoned());
  session.EvictColdState();
  EXPECT_FALSE(session.index_resident());
  // A poisoned session never rebuilds: Apply keeps refusing with the
  // structured budget error and the index stays down.
  EpochOutcome out = session.Apply(OneUpdate(UpdateKind::kInsert, "R", {"zz"}));
  EXPECT_TRUE(out.budget_exceeded);
  EXPECT_FALSE(session.index_resident());
  EXPECT_EQ(session.rebuilds(), 0u);
}

// --- churn generators -------------------------------------------------------

TEST(Churn, DeterministicAndRegistered) {
  EXPECT_EQ(AllChurnNames(),
            (std::vector<std::string>{"insert", "delete", "mixed", "hub"}));
  EXPECT_TRUE(IsChurnKind("hub"));
  EXPECT_FALSE(IsChurnKind("bogus"));

  ScenarioParams params;
  params.size = 10;
  params.seed = 9;
  Database db = GenerateErdosRenyiVC(params);
  ChurnParams churn;
  churn.epochs = 5;
  churn.rate = 0.2;
  churn.seed = 42;
  for (const ChurnKind& kind : ChurnCatalog()) {
    UpdateLog a = GenerateChurn(db, kind.name, churn);
    UpdateLog b = GenerateChurn(db, kind.name, churn);
    EXPECT_EQ(a, b) << kind.name;
    EXPECT_EQ(a.epochs.size(), 5u) << kind.name;
    EXPECT_GT(a.size(), 0u) << kind.name;
    std::string error;
    EXPECT_TRUE(ValidateUpdateLog(a, db, &error)) << kind.name << ": " << error;
  }
  churn.seed = 43;
  EXPECT_FALSE(GenerateChurn(db, "mixed", churn) ==
               GenerateChurn(db, "mixed",
                             ChurnParams{churn.epochs, churn.rate, 42}));
}

TEST(Churn, KindsHaveTheirSign) {
  ScenarioParams params;
  params.size = 10;
  params.seed = 13;
  Database db = GenerateErdosRenyiVC(params);
  ChurnParams churn;
  churn.epochs = 4;
  churn.rate = 0.15;
  churn.seed = 8;
  UpdateLog inserts = GenerateChurn(db, "insert", churn);
  for (const Update& u : inserts.epochs[0].updates) {
    EXPECT_EQ(u.kind, UpdateKind::kInsert);
  }
  UpdateLog deletes = GenerateChurn(db, "delete", churn);
  for (const Update& u : deletes.epochs[0].updates) {
    EXPECT_EQ(u.kind, UpdateKind::kDelete);
  }
}

// --- stream runner ----------------------------------------------------------

TEST(Stream, RunStreamChecksOracleAndWritesSchemaV4) {
  ScenarioParams params;
  params.size = 10;
  params.seed = 21;
  Database db = GenerateErdosRenyiVC(params);
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  ChurnParams churn;
  churn.epochs = 4;
  churn.rate = 0.15;
  churn.seed = 3;
  UpdateLog log = GenerateChurn(db, "mixed", churn);
  StreamOptions options;
  options.check_oracle = true;
  StreamReport report = RunStream(q, "q_vc", db, log, options);
  ASSERT_EQ(report.rows.size(), 5u);  // epoch 0 + 4 epochs
  EXPECT_EQ(report.mismatches, 0);
  for (const StreamRow& row : report.rows) {
    EXPECT_TRUE(row.oracle_checked);
    EXPECT_TRUE(row.oracle_match);
  }

  std::ostringstream json, csv;
  WriteStreamJson(report, json);
  EXPECT_NE(json.str().find("\"schema\": \"rescq-stream-report/v6\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"mismatches\": 0"), std::string::npos);
  WriteStreamCsv(report, csv);
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("epoch,inserted,deleted,tuples,delta_witnesses"),
            std::string::npos);
  // One header line plus one line per row.
  EXPECT_EQ(static_cast<size_t>(
                std::count(csv_text.begin(), csv_text.end(), '\n')),
            report.rows.size() + 1);
}

}  // namespace
}  // namespace rescq
