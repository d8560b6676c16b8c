// E10: the automated Independent Join Path search (Section 9 + Appendix
// C; Example 62: Bell(9) = 21147 partitions): what it finds per query
// and how many partitions and candidates it examines, then the timing
// of the search and of the Definition 48 checker. ijp_test holds the
// verdicts: the checker on the worked examples (E9), the search's
// found/not-found per query, and Conjecture 49's composition
// rho(D_G) = VC(G) + |E|*(c-1) (E11).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "complexity/catalog.h"
#include "ijp/examples.h"
#include "ijp/ijp.h"
#include "ijp/ijp_search.h"
#include "util/combinatorics.h"

namespace rescq {
namespace {

void PrintSearchTable() {
  bench::PrintHeader(
      "E10: automated IJP search (Appendix C.2 / Example 62)",
      "Canonical databases + set-partition enumeration. Hard queries "
      "yield IJPs, PTIME queries none (Conjecture 49's converse).");
  std::printf("%-12s %6s %6s %12s %12s %8s\n", "query", "found", "joins",
              "partitions", "candidates", "c");
  auto row = [&](const char* name, int min_joins, int max_joins) {
    IjpSearchOptions options;
    options.min_joins = min_joins;
    options.max_joins = max_joins;
    IjpSearchResult r = SearchForIjp(CatalogQuery(name), options);
    std::printf("%-12s %6s %6d %12llu %12llu %8d\n", name,
                r.found ? "yes" : "no", r.joins,
                static_cast<unsigned long long>(r.partitions_examined),
                static_cast<unsigned long long>(r.candidates_checked),
                r.resilience);
  };
  std::printf("(Bell(9) = %llu as quoted in Example 62)\n",
              static_cast<unsigned long long>(BellNumber(9)));
  row("q_vc", 1, 2);
  row("q_chain", 1, 2);
  row("q_triangle", 3, 3);
  row("q_ABperm", 1, 3);   // hard (Prop 34): certificate found automatically
  row("q_achain", 1, 3);   // Lemma 53
  row("q_bchain", 1, 3);   // Lemma 52
  row("q_acchain", 1, 3);  // Lemma 54
  row("cf_p", 1, 2);       // Prop 32 (exogenous relation in play)
  row("z1", 1, 2);         // Thm 28
  row("q_perm", 1, 2);
  row("q_Aperm", 1, 2);
  row("q_ACconf", 1, 2);
  row("z3", 1, 2);         // Prop 36 (PTIME)
}

void BM_IjpSearchTriangle(benchmark::State& state) {
  Query q = CatalogQuery("q_triangle");
  IjpSearchOptions options;
  options.min_joins = 3;
  options.max_joins = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SearchForIjp(q, options));
  }
}
BENCHMARK(BM_IjpSearchTriangle)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_IjpCheck59(benchmark::State& state) {
  IjpExample ex = BuildIjpExample59();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CheckIjp(ex.query, ex.db, ex.endpoint_a, ex.endpoint_b));
  }
}
BENCHMARK(BM_IjpCheck59);

}  // namespace
}  // namespace rescq

int main(int argc, char** argv) {
  rescq::PrintSearchTable();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
