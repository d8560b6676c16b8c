#include "workload/report.h"

#include <ostream>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace rescq {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

const char* BoolName(bool b) { return b ? "true" : "false"; }

void WriteReportCsv(const BatchReport& report, std::ostream& out) {
  out << "query,scenario,size,density,seed,tuples,domain,fingerprint,"
         "unbreakable,resilience,solver,verified,oracle_checked,oracle_match,"
         "oracle_resilience,memo_hit,plan_cache_hit,budget_exceeded,"
         "wall_ms\n";
  for (const BatchCell& c : report.cells) {
    out << c.query << "," << c.scenario << "," << c.size << ","
        << StrFormat("%.3f", c.density) << "," << c.seed << "," << c.tuples
        << "," << c.domain << "," << c.fingerprint << ","
        << BoolName(c.unbreakable) << "," << c.resilience << ","
        << SolverKindName(c.solver) << "," << BoolName(c.verified) << ","
        << BoolName(c.oracle_checked) << "," << BoolName(c.oracle_match) << ","
        << c.oracle_resilience << "," << BoolName(c.memo_hit) << ","
        << BoolName(c.plan_cache_hit) << "," << BoolName(c.budget_exceeded)
        << "," << StrFormat("%.3f", c.wall_ms) << "\n";
  }
}

void WriteReportJson(const BatchReport& report, std::ostream& out) {
  out << "{\n  \"schema\": \"rescq-batch-report/v6\",\n";
  out << "  \"options\": {\"threads\": " << report.options.threads
      << ", \"check_oracle\": " << BoolName(report.options.check_oracle)
      << ", \"oracle_cutoff\": " << report.options.oracle_cutoff
      << ", \"memoize\": " << BoolName(report.options.memoize)
      << ", \"witness_limit\": " << report.options.witness_limit
      << ", \"exact_node_budget\": " << report.options.exact_node_budget
      << ", \"solver_threads\": " << report.options.solver_threads
      << "},\n";
  out << "  \"summary\": {\"cells\": " << report.cells.size()
      << ", \"mismatches\": " << report.mismatches
      << ", \"memo_hits\": " << report.memo_hits
      << ", \"budget_exceeded\": " << report.budget_exceeded
      << ", \"plan_cache\": {"
      << "\"hits\": " << report.plan_cache_hits
      << ", \"misses\": " << report.plan_cache_misses
      << ", \"entries\": " << report.plan_cache_entries
      << "}, \"total_wall_ms\": " << StrFormat("%.3f", report.total_wall_ms)
      << ", \"elapsed_ms\": " << StrFormat("%.3f", report.elapsed_ms)
      << "},\n";
  // v5: the global metrics registry's snapshot fields. Empty objects
  // unless a sink (--metrics-json or a test) enabled collection.
  std::string metrics;
  obs::GlobalRegistry().AppendSnapshotFields(&metrics, 4);
  out << "  \"metrics\": {\n" << metrics << "\n  },\n";
  out << "  \"cells\": [\n";
  for (size_t i = 0; i < report.cells.size(); ++i) {
    const BatchCell& c = report.cells[i];
    out << "    {\"query\": \"" << JsonEscape(c.query) << "\", \"query_text\": \""
        << JsonEscape(c.query_text) << "\", \"scenario\": \""
        << JsonEscape(c.scenario) << "\", \"size\": " << c.size
        << ", \"density\": " << StrFormat("%.3f", c.density)
        << ", \"seed\": " << c.seed << ", \"tuples\": " << c.tuples
        << ", \"domain\": " << c.domain << ", \"fingerprint\": \""
        << c.fingerprint << "\", \"unbreakable\": " << BoolName(c.unbreakable)
        << ", \"resilience\": " << c.resilience << ", \"solver\": \""
        << SolverKindName(c.solver) << "\", \"verified\": "
        << BoolName(c.verified) << ", \"contingency\": [";
    // v6: the contingency set as [relation, row] tuple ids.
    for (size_t t = 0; t < c.contingency.size(); ++t) {
      out << (t > 0 ? ", [" : "[") << c.contingency[t].relation << ", "
          << c.contingency[t].row << "]";
    }
    out << "], \"oracle_checked\": " << BoolName(c.oracle_checked)
        << ", \"oracle_match\": " << BoolName(c.oracle_match)
        << ", \"oracle_resilience\": " << c.oracle_resilience
        << ", \"memo_hit\": " << BoolName(c.memo_hit)
        << ", \"plan_cache_hit\": " << BoolName(c.plan_cache_hit)
        << ", \"budget_exceeded\": " << BoolName(c.budget_exceeded)
        << ", \"error\": \"" << JsonEscape(c.error) << "\""
        << ", \"wall_ms\": " << StrFormat("%.3f", c.wall_ms) << "}"
        << (i + 1 < report.cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

void PrintReportTable(const BatchReport& report, std::FILE* out) {
  std::fprintf(out, "%-16s %-15s %5s %6s %7s %5s %-18s %-8s %9s\n", "query",
               "scenario", "size", "seed", "tuples", "rho", "solver", "oracle",
               "wall_ms");
  for (const BatchCell& c : report.cells) {
    const char* oracle = !c.oracle_checked ? "-"
                         : c.oracle_match  ? "match"
                                           : "MISMATCH";
    std::fprintf(out, "%-16s %-15s %5d %6llu %7d %5s %-18s %-8s %9.3f%s%s\n",
                 c.query.c_str(), c.scenario.c_str(), c.size,
                 static_cast<unsigned long long>(c.seed), c.tuples,
                 // A node-budget cell still carries a verified upper
                 // bound; a witness-budget cell has no value at all.
                 c.budget_exceeded
                     ? (c.resilience > 0
                            ? StrFormat(">=%d", c.resilience).c_str()
                            : "-")
                 : c.unbreakable ? "inf"
                                 : StrFormat("%d", c.resilience).c_str(),
                 SolverKindName(c.solver), oracle, c.wall_ms,
                 c.memo_hit ? "  (memo)" : "",
                 c.budget_exceeded ? "  (budget exceeded)" : "");
  }
  std::fprintf(out,
               "\n%zu cells, %d mismatch(es), %d memo hit(s), %d over "
               "budget; plan cache %llu hit(s) / %llu miss(es); solver "
               "time %.1f ms, elapsed %.1f ms on %d thread(s)\n",
               report.cells.size(), report.mismatches, report.memo_hits,
               report.budget_exceeded,
               static_cast<unsigned long long>(report.plan_cache_hits),
               static_cast<unsigned long long>(report.plan_cache_misses),
               report.total_wall_ms, report.elapsed_ms,
               report.options.threads);
}

}  // namespace rescq
