#ifndef RESCQ_BENCH_BENCH_UTIL_H_
#define RESCQ_BENCH_BENCH_UTIL_H_

// Shared helpers for the benchmark binaries: each binary prints the
// paper-artifact tables on stdout first, then runs its google-benchmark
// timing series.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "cq/parser.h"
#include "cq/query.h"
#include "db/database.h"
#include "db/witness.h"
#include "resilience/exact_solver.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace rescq::bench {

/// Fills db with `tuples_per_relation` random tuples per query relation
/// over `domain` constants (deterministic in rng).
inline Database RandomDatabase(const Query& q, int domain,
                               int tuples_per_relation, Rng& rng) {
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

inline void PrintHeader(const char* experiment, const char* description) {
  std::printf("\n==== %s ====\n%s\n\n", experiment, description);
}

/// The witness family of `copies` instances of one scenario (copy c is
/// generated with seed c + 1) as one dense-id hitting-set family. Each
/// copy gets its own element range, so copies are independent
/// components for the solver. The ranges stay compact, because the
/// solver's scratch arrays scale with the largest element id.
inline HittingSetFamily ScenarioFamily(const char* scenario_name, int size,
                                       int copies = 1) {
  const Scenario* scenario = FindScenario(scenario_name);
  Query q = MustParseQuery(scenario->query);
  HittingSetFamily out;
  std::vector<TupleId> tuples;
  int offset = 0;
  for (int c = 0; c < copies; ++c) {
    ScenarioParams params;
    params.size = size;
    params.seed = static_cast<uint64_t>(c) + 1;
    Database db = scenario->generate(params);
    const HittingSetFamily copy = HittingSetFamily::From(
        CollectWitnessFamily(q, db, kNoWitnessLimit), &tuples);
    const uint32_t base = static_cast<uint32_t>(out.pool.size());
    for (int e : copy.pool) out.pool.push_back(offset + e);
    for (SetSpan s : copy.sets) {
      out.sets.push_back(SetSpan{base + s.offset, s.len});
    }
    offset += static_cast<int>(tuples.size());
  }
  return out;
}

/// Best-of-N wall time in ms: the solvers are deterministic, so the
/// minimum is the noise-free statistic. A single run when the first
/// one takes `slow_ms` or more, so the CI smoke runs stay bounded.
inline double BestMs(const std::function<void()>& fn, double slow_ms = 200.0,
                     int repeats = 4) {
  auto once = [&] {
    auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  double best = once();
  if (best < slow_ms) {
    for (int r = 0; r < repeats; ++r) best = std::min(best, once());
  }
  return best;
}

}  // namespace rescq::bench

#endif  // RESCQ_BENCH_BENCH_UTIL_H_
