// E3: Theorem 37's claim that "there is a PTIME algorithm that on input q
// determines which case occurs", exercised exhaustively: enumerate every
// single-self-join binary query with exactly two R-atoms (over up to four
// variables, decorated with endogenous/exogenous unary atoms), classify
// all of them, and report the census. No query in the class may come back
// out-of-scope or open — that is the dichotomy.

// The file also benchmarks the witness enumerator itself: the
// shortest-row-chain probe on column-skewed instances (where probing
// the first bound column degenerates to a full row-chain scan) and
// the streaming ForEachWitness pipeline against materializing
// EnumerateWitnesses.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <set>

#include "bench_util.h"
#include "complexity/classifier.h"
#include "cq/homomorphism.h"
#include "cq/parser.h"
#include "db/witness.h"

namespace rescq {
namespace {

// Canonicalizes a variable vector to first-occurrence order so renamings
// collapse.
std::vector<int> Canonicalize(const std::vector<int>& vars) {
  std::map<int, int> remap;
  std::vector<int> out;
  for (int v : vars) {
    auto [it, inserted] = remap.emplace(v, static_cast<int>(remap.size()));
    out.push_back(it->second);
  }
  return out;
}

// Enumerates the query family; calls visit(query).
void EnumerateTwoAtomFamily(const std::function<void(const Query&)>& visit) {
  static const char* kVarNames[] = {"x", "y", "z", "w"};
  std::set<std::vector<int>> seen_pairs;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int c = 0; c < 4; ++c) {
        for (int d = 0; d < 4; ++d) {
          std::vector<int> pair = Canonicalize({a, b, c, d});
          if (!seen_pairs.insert(pair).second) continue;
          int num_vars = 1;
          for (int v : pair) num_vars = std::max(num_vars, v + 1);
          // Decorations: each variable gets nothing (0), an endogenous
          // unary atom (1), or an exogenous unary atom (2).
          int combos = 1;
          for (int v = 0; v < num_vars; ++v) combos *= 3;
          for (int deco = 0; deco < combos; ++deco) {
            // Connector between the first and last variable: none,
            // endogenous S, or exogenous S^x. This adds the path and
            // exogenous-confluence-path cases to the family.
            for (int conn = 0; conn < (num_vars >= 2 ? 3 : 1); ++conn) {
              std::vector<Atom> atoms;
              atoms.push_back(Atom{"R", {pair[0], pair[1]}, false});
              atoms.push_back(Atom{"R", {pair[2], pair[3]}, false});
              if (conn > 0) {
                atoms.push_back(Atom{"S", {0, num_vars - 1}, conn == 2});
              }
              int d2 = deco;
              for (int v = 0; v < num_vars; ++v) {
                int kind = d2 % 3;
                d2 /= 3;
                if (kind == 0) continue;
                std::string rel =
                    std::string(kind == 1 ? "U" : "X") + kVarNames[v];
                atoms.push_back(Atom{rel, {v}, kind == 2});
              }
              std::vector<std::string> names(kVarNames,
                                             kVarNames + num_vars);
              visit(Query(std::move(atoms), std::move(names)));
            }
          }
        }
      }
    }
  }
}

void PrintCensus() {
  bench::PrintHeader(
      "E3: exhaustive two-R-atom census (Theorem 37)",
      "All ssj binary queries with two R-atoms over <=4 variables, each "
      "variable optionally pinned by an endogenous or exogenous unary "
      "atom. The dichotomy assigns every one of them PTIME or "
      "NP-complete.");
  std::map<std::string, int> census;
  std::map<std::string, int> by_pattern;
  int total = 0;
  EnumerateTwoAtomFamily([&](const Query& q) {
    Classification c = ClassifyResilience(q);
    ++census[ComplexityName(c.complexity)];
    ++by_pattern[c.pattern];
    ++total;
  });
  std::printf("queries enumerated: %d\n\n", total);
  std::printf("%-14s %8s\n", "verdict", "count");
  for (const auto& [verdict, count] : census) {
    std::printf("%-14s %8d\n", verdict.c_str(), count);
  }
  std::printf("\n%-28s %8s\n", "decisive pattern", "count");
  for (const auto& [pattern, count] : by_pattern) {
    std::printf("%-28s %8d\n", pattern.c_str(), count);
  }
}

void BM_ClassifyFamily(benchmark::State& state) {
  std::vector<Query> family;
  EnumerateTwoAtomFamily([&](const Query& q) { family.push_back(q); });
  for (auto _ : state) {
    for (const Query& q : family) {
      benchmark::DoNotOptimize(ClassifyResilience(q));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(family.size()));
}
BENCHMARK(BM_ClassifyFamily)->Unit(benchmark::kMillisecond);

// --- Witness enumeration -----------------------------------------------------

// Hub-skewed instance for "A(x), B(y), R(x,y)": R's hub column holds one
// value shared by every row (a row chain as long as the relation)
// while the other column is distinct. With x and y both bound at the R
// atom, probing the hub column scans every row per probe — the
// shortest-row-chain choice probes the distinct column and touches
// one row. `hub_first` flips which column carries the skew; a
// first-bound-column probe is fast on one orientation and quadratic on
// the other, while the smallest-list probe makes both orientations
// equally fast.
Database SkewedHub(int rows, int selected, bool hub_first) {
  Database db;
  Value hub = db.Intern("hub");
  for (int i = 0; i < rows; ++i) {
    Value other = db.InternIndexed("v", i);
    if (hub_first) {
      db.AddTuple("R", {hub, other});
    } else {
      db.AddTuple("R", {other, hub});
    }
  }
  if (hub_first) {
    db.AddTuple("A", {hub});
    for (int i = 0; i < selected; ++i) {
      db.AddTuple("B", {db.InternIndexed("v", i)});
    }
  } else {
    db.AddTuple("B", {hub});
    for (int i = 0; i < selected; ++i) {
      db.AddTuple("A", {db.InternIndexed("v", i)});
    }
  }
  return db;
}

void BM_WitnessSkewedProbe(benchmark::State& state, bool hub_first) {
  Query q = MustParseQuery("A(x), B(y), R(x,y)");
  Database db = SkewedHub(static_cast<int>(state.range(0)),
                          /*selected=*/64, hub_first);
  size_t witnesses = 0;
  for (auto _ : state) {
    witnesses = 0;
    ForEachWitness(q, db, [&](const Witness&) {
      ++witnesses;
      return true;
    });
    benchmark::DoNotOptimize(witnesses);
  }
  state.counters["witnesses"] = static_cast<double>(witnesses);
}

BENCHMARK_CAPTURE(BM_WitnessSkewedProbe, hub_in_first_column, true)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WitnessSkewedProbe, hub_in_second_column, false)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// Long chain: many witnesses, each tiny — the regime where materializing
// every Witness (assignment + atom tuples + endo set) costs real
// allocation traffic that the streaming family collector never pays.
Database LongChain(int edges) {
  Database db;
  for (int i = 0; i < edges; ++i) {
    db.AddTuple("R", {db.InternIndexed("n", i), db.InternIndexed("n", i + 1)});
  }
  return db;
}

void BM_MaterializeWitnesses(benchmark::State& state) {
  Query q = MustParseQuery("R(x,y), R(y,z)");
  Database db = LongChain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<Witness> ws = EnumerateWitnesses(q, db, kNoWitnessLimit);
    std::set<std::vector<TupleId>> sets;
    for (Witness& w : ws) sets.insert(std::move(w.endo_tuples));
    benchmark::DoNotOptimize(sets.size());
  }
}
BENCHMARK(BM_MaterializeWitnesses)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_StreamWitnessFamily(benchmark::State& state) {
  Query q = MustParseQuery("R(x,y), R(y,z)");
  Database db = LongChain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
    benchmark::DoNotOptimize(family.sets.size());
  }
}
BENCHMARK(BM_StreamWitnessFamily)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rescq

int main(int argc, char** argv) {
  rescq::PrintCensus();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
