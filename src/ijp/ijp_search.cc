#include "ijp/ijp_search.h"

#include <map>
#include <vector>

#include "util/check.h"
#include "util/combinatorics.h"
#include "util/string_util.h"

namespace rescq {

namespace {

// Builds the merged database for one partition: constant (join j, var v)
// lives in block rgs[j * num_vars + v]; each join contributes one tuple
// per atom over its blocks.
Database BuildMergedDatabase(const Query& q, int joins,
                             const std::vector<int>& rgs) {
  Database db;
  int num_vars = q.num_vars();
  auto block_value = [&](int join, VarId v) {
    int block = rgs[static_cast<size_t>(join * num_vars + v)];
    return db.InternIndexed("n", block);
  };
  for (int j = 0; j < joins; ++j) {
    for (const Atom& atom : q.atoms()) {
      std::vector<Value> row;
      for (VarId v : atom.vars) row.push_back(block_value(j, v));
      db.AddTuple(atom.relation, row);
    }
  }
  return db;
}

bool MergesWithinJoin(int joins, int num_vars, const std::vector<int>& rgs) {
  for (int j = 0; j < joins; ++j) {
    std::map<int, int> seen;  // block -> first var
    for (int v = 0; v < num_vars; ++v) {
      int block = rgs[static_cast<size_t>(j * num_vars + v)];
      auto [it, inserted] = seen.emplace(block, v);
      if (!inserted) return true;
    }
  }
  return false;
}

}  // namespace

IjpSearchResult SearchForIjp(const Query& q, const IjpSearchOptions& options) {
  IjpSearchResult result;
  const int num_vars = q.num_vars();
  for (int k = options.min_joins; k <= options.max_joins && !result.found;
       ++k) {
    int n = k * num_vars;
    if (n > 25) break;  // Bell-number territory beyond any budget
    uint64_t examined_this_round = 0;
    ForEachSetPartition(n, [&](const std::vector<int>& rgs) {
      if (++examined_this_round > options.max_partitions) return false;
      ++result.partitions_examined;
      if (options.prune_within_join && MergesWithinJoin(k, num_vars, rgs)) {
        return true;
      }
      Database db = BuildMergedDatabase(q, k, rgs);
      // One enumeration serves every pair: CheckIjp leaves db's activity
      // as it found it.
      const std::vector<Witness> witnesses =
          EnumerateWitnesses(q, db, kNoWitnessLimit);
      // Try every endpoint pair of every endogenous relation.
      for (int rel = 0; rel < db.num_relations(); ++rel) {
        const std::string& name = db.relation_name(rel);
        if (q.IsRelationExogenous(name)) continue;
        std::vector<TupleId> tuples = db.ActiveTuples(rel);
        for (size_t i = 0; i < tuples.size(); ++i) {
          for (size_t j = i + 1; j < tuples.size(); ++j) {
            ++result.candidates_checked;
            IjpCheckResult check = internal::CheckIjp(
                q, db, tuples[i], tuples[j], witnesses);
            if (check.is_ijp) {
              result.found = true;
              result.joins = k;
              result.db = db;
              result.endpoint_a = tuples[i];
              result.endpoint_b = tuples[j];
              result.resilience = check.resilience;
              result.description = StrFormat(
                  "IJP for '%s' with %d joins, endpoints %s / %s, c = %d",
                  q.ToString().c_str(), k,
                  db.TupleToString(tuples[i]).c_str(),
                  db.TupleToString(tuples[j]).c_str(), check.resilience);
              return false;  // stop enumeration
            }
          }
        }
      }
      return true;
    });
  }
  if (!result.found) {
    result.description =
        StrFormat("no IJP found for '%s' within the search budget",
                  q.ToString().c_str());
  }
  return result;
}

}  // namespace rescq
