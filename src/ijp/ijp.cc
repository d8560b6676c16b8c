#include "ijp/ijp.h"

#include <algorithm>
#include <set>

#include "db/witness.h"
#include "resilience/exact_solver.h"
#include "util/check.h"
#include "util/combinatorics.h"
#include "util/string_util.h"

namespace rescq {

namespace {

std::set<Value> ConstantSet(const Database& db, TupleId t) {
  RowView row = db.Row(t);
  return std::set<Value>(row.begin(), row.end());
}

bool ProperSubset(const std::set<Value>& a, const std::set<Value>& b) {
  return a.size() < b.size() &&
         std::includes(b.begin(), b.end(), a.begin(), a.end());
}

// Resilience after deactivating `removed` (restores activity).
int ResilienceWithout(const Query& q, Database& db,
                      const std::vector<TupleId>& removed, bool* unbreakable) {
  for (TupleId t : removed) db.SetActive(t, false);
  ResilienceResult r = ComputeResilienceExact(q, db);
  for (TupleId t : removed) db.SetActive(t, true);
  *unbreakable = r.unbreakable;
  return r.resilience;
}

}  // namespace

IjpCheckResult CheckIjp(const Query& q, Database& db, TupleId endpoint_a,
                        TupleId endpoint_b) {
  return internal::CheckIjp(q, db, endpoint_a, endpoint_b,
                            EnumerateWitnesses(q, db, kNoWitnessLimit));
}

IjpCheckResult internal::CheckIjp(const Query& q, Database& db,
                                  TupleId endpoint_a, TupleId endpoint_b,
                                  const std::vector<Witness>& witnesses) {
  IjpCheckResult out;

  // Condition 1: same relation, incomparable constant sets.
  if (endpoint_a == endpoint_b ||
      endpoint_a.relation != endpoint_b.relation || !db.IsActive(endpoint_a) ||
      !db.IsActive(endpoint_b)) {
    out.failed_condition = 1;
    out.explanation = "endpoints must be two distinct active tuples of one "
                      "relation";
    return out;
  }
  const std::string& rel_name = db.relation_name(endpoint_a.relation);
  if (q.AtomsOfRelation(rel_name).empty() ||
      q.IsRelationExogenous(rel_name)) {
    out.failed_condition = 1;
    out.explanation = "endpoint relation must be endogenous in the query";
    return out;
  }
  std::set<Value> set_a = ConstantSet(db, endpoint_a);
  std::set<Value> set_b = ConstantSet(db, endpoint_b);
  if (std::includes(set_a.begin(), set_a.end(), set_b.begin(), set_b.end()) ||
      std::includes(set_b.begin(), set_b.end(), set_a.begin(), set_a.end())) {
    out.failed_condition = 1;
    out.explanation = "endpoint constant sets are comparable (a ⊆ b or "
                      "b ⊆ a)";
    return out;
  }

  // Condition 2: each endpoint in exactly one witness; those witnesses use
  // exactly m distinct tuples.
  int count_a = 0, count_b = 0;
  const Witness* wa = nullptr;
  const Witness* wb = nullptr;
  for (const Witness& w : witnesses) {
    bool has_a = false, has_b = false;
    for (TupleId t : w.atom_tuples) {
      has_a = has_a || t == endpoint_a;
      has_b = has_b || t == endpoint_b;
    }
    if (has_a) {
      ++count_a;
      wa = &w;
    }
    if (has_b) {
      ++count_b;
      wb = &w;
    }
  }
  if (count_a != 1 || count_b != 1) {
    out.failed_condition = 2;
    out.explanation = StrFormat(
        "endpoints must participate in exactly one witness each (got %d "
        "and %d)",
        count_a, count_b);
    return out;
  }
  for (const Witness* w : {wa, wb}) {
    std::set<TupleId> distinct(w->atom_tuples.begin(), w->atom_tuples.end());
    if (static_cast<int>(distinct.size()) != q.num_atoms()) {
      out.failed_condition = 2;
      out.explanation = StrFormat(
          "endpoint witness uses %d distinct tuples; need m = %d",
          static_cast<int>(distinct.size()), q.num_atoms());
      return out;
    }
  }

  // Condition 3: no endogenous tuple with constants a proper subset of an
  // endpoint's.
  for (int rel = 0; rel < db.num_relations(); ++rel) {
    const std::string& name = db.relation_name(rel);
    if (q.AtomsOfRelation(name).empty() || q.IsRelationExogenous(name)) {
      continue;
    }
    for (TupleId t : db.ActiveTuples(rel)) {
      std::set<Value> c = ConstantSet(db, t);
      if (ProperSubset(c, set_a) || ProperSubset(c, set_b)) {
        out.failed_condition = 3;
        out.explanation = StrFormat(
            "endogenous tuple %s has constants strictly inside an endpoint",
            db.TupleToString(t).c_str());
        return out;
      }
    }
  }

  // Condition 4: exogenous projections must exist for both endpoints.
  RowView row_a = db.Row(endpoint_a);
  RowView row_b = db.Row(endpoint_b);
  RESCQ_CHECK_EQ(row_a.size(), row_b.size());
  for (int rel = 0; rel < db.num_relations(); ++rel) {
    const std::string& name = db.relation_name(rel);
    if (q.AtomsOfRelation(name).empty() || !q.IsRelationExogenous(name)) {
      continue;
    }
    int arity = db.relation_arity(rel);
    if (arity > static_cast<int>(row_a.size())) continue;
    bool ok = true;
    std::string missing;
    ForEachCombination(
        static_cast<int>(row_a.size()), arity, [&](const std::vector<int>& j) {
          std::vector<Value> aj, bj;
          for (int idx : j) {
            aj.push_back(row_a[static_cast<size_t>(idx)]);
            bj.push_back(row_b[static_cast<size_t>(idx)]);
          }
          auto have = [&](const std::vector<Value>& v) {
            std::optional<TupleId> t = db.FindTuple(name, v);
            return t.has_value() && db.IsActive(*t);
          };
          if (have(aj) != have(bj)) {
            ok = false;
            missing = StrFormat("relation %s: projection present for one "
                                "endpoint only",
                                name.c_str());
            return false;
          }
          return true;
        });
    if (!ok) {
      out.failed_condition = 4;
      out.explanation = missing;
      return out;
    }
  }

  // Condition 5: the or-property.
  ResilienceResult base = ComputeResilienceExact(q, db);
  if (base.unbreakable || base.resilience < 1) {
    out.failed_condition = 5;
    out.explanation = "base resilience must be a finite positive number";
    return out;
  }
  int c = base.resilience;
  out.resilience = c;
  for (const std::vector<TupleId>& removed :
       {std::vector<TupleId>{endpoint_a}, std::vector<TupleId>{endpoint_b},
        std::vector<TupleId>{endpoint_a, endpoint_b}}) {
    bool unbreakable = false;
    int r = ResilienceWithout(q, db, removed, &unbreakable);
    if (unbreakable || r != c - 1) {
      out.failed_condition = 5;
      out.explanation = StrFormat(
          "or-property violated: removing %zu endpoint(s) gives %d, want %d",
          removed.size(), r, c - 1);
      return out;
    }
  }
  out.is_ijp = true;
  out.explanation = StrFormat("IJP with base resilience c = %d", c);
  return out;
}

}  // namespace rescq
