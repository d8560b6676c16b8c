#include "workload/stream.h"

#include <ostream>

#include "obs/metrics.h"
#include "resilience/exact_solver.h"
#include "util/clock.h"
#include "util/string_util.h"
#include "workload/report.h"

namespace rescq {

namespace {

StreamRow RowFromOutcome(const EpochOutcome& o, const IncrementalSession& s) {
  StreamRow row;
  row.epoch = o.epoch;
  row.inserted = o.inserted;
  row.deleted = o.deleted;
  row.tuples = s.db().NumActiveTuples();
  row.delta_witnesses = o.delta_witnesses;
  row.family_sets = o.family_sets;
  row.lower_bound = o.lower_bound;
  row.upper_bound = o.upper_bound;
  row.resolved = o.resolved;
  row.unbreakable = o.unbreakable;
  row.resilience = o.resilience;
  row.budget_exceeded = o.budget_exceeded;
  row.error = o.error;
  row.wall_ms = o.wall_ms;
  return row;
}

void MaybeCheckOracle(const Query& q, const IncrementalSession& session,
                      const StreamOptions& options, StreamRow* row) {
  if (!options.check_oracle) return;
  // A witness-budget row has no value to check; a node-budget row is a
  // deliberate upper bound — neither is a mismatch.
  if (row->budget_exceeded) return;
  Clock::time_point start = Clock::now();
  ResilienceResult oracle = ComputeResilienceExact(q, session.db());
  row->oracle_ms = MsSince(start);
  row->oracle_checked = true;
  row->oracle_resilience = oracle.unbreakable ? -1 : oracle.resilience;
  row->oracle_match =
      oracle.unbreakable == row->unbreakable &&
      (oracle.unbreakable || oracle.resilience == row->resilience);
}

}  // namespace

StreamReport RunStream(const Query& q, const std::string& query_name,
                       const Database& base, const UpdateLog& log,
                       const StreamOptions& options) {
  StreamReport report;
  report.query = query_name;
  report.query_text = q.ToString();
  report.options = options;

  IncrementalSession session(q, base, options.exact);

  StreamRow row = RowFromOutcome(session.Peek(), session);
  MaybeCheckOracle(q, session, options, &row);
  report.rows.push_back(row);
  for (const Epoch& epoch : log.epochs) {
    EpochOutcome outcome = session.Apply(epoch);
    row = RowFromOutcome(outcome, session);
    MaybeCheckOracle(q, session, options, &row);
    report.rows.push_back(row);
  }

  for (const StreamRow& r : report.rows) {
    report.mismatches += r.oracle_checked && !r.oracle_match ? 1 : 0;
    report.resolves += r.resolved ? 1 : 0;
    report.budget_exceeded += r.budget_exceeded ? 1 : 0;
    report.total_wall_ms += r.wall_ms;
    report.total_oracle_ms += r.oracle_ms;
  }
  return report;
}

void WriteStreamCsv(const StreamReport& report, std::ostream& out) {
  out << "epoch,inserted,deleted,tuples,delta_witnesses,family_sets,"
         "lower_bound,upper_bound,resolved,unbreakable,resilience,"
         "oracle_checked,oracle_match,oracle_resilience,budget_exceeded,"
         "wall_ms,oracle_ms\n";
  for (const StreamRow& r : report.rows) {
    out << r.epoch << "," << r.inserted << "," << r.deleted << "," << r.tuples
        << "," << r.delta_witnesses << "," << r.family_sets << ","
        << r.lower_bound << "," << r.upper_bound << "," << BoolName(r.resolved)
        << "," << BoolName(r.unbreakable) << "," << r.resilience << ","
        << BoolName(r.oracle_checked) << "," << BoolName(r.oracle_match) << ","
        << r.oracle_resilience << "," << BoolName(r.budget_exceeded) << ","
        << StrFormat("%.3f", r.wall_ms) << ","
        << StrFormat("%.3f", r.oracle_ms) << "\n";
  }
}

void WriteStreamJson(const StreamReport& report, std::ostream& out) {
  out << "{\n  \"schema\": \"rescq-stream-report/v6\",\n";
  out << "  \"query\": \"" << JsonEscape(report.query)
      << "\", \"query_text\": \"" << JsonEscape(report.query_text) << "\",\n";
  out << "  \"options\": {\"check_oracle\": "
      << BoolName(report.options.check_oracle)
      << ", \"witness_limit\": " << report.options.exact.witness_limit
      << ", \"exact_node_budget\": " << report.options.exact.node_budget
      << ", \"solver_threads\": " << report.options.exact.solver_threads
      << "},\n";
  out << "  \"summary\": {\"epochs\": " << report.rows.size()
      << ", \"mismatches\": " << report.mismatches
      << ", \"resolves\": " << report.resolves
      << ", \"budget_exceeded\": " << report.budget_exceeded
      << ", \"total_wall_ms\": " << StrFormat("%.3f", report.total_wall_ms)
      << ", \"total_oracle_ms\": "
      << StrFormat("%.3f", report.total_oracle_ms) << "},\n";
  // v6: the global metrics registry's snapshot fields. Empty objects
  // unless a sink (--metrics-json or a test) enabled collection.
  std::string metrics;
  obs::GlobalRegistry().AppendSnapshotFields(&metrics, 4);
  out << "  \"metrics\": {\n" << metrics << "\n  },\n";
  out << "  \"epochs\": [\n";
  for (size_t i = 0; i < report.rows.size(); ++i) {
    const StreamRow& r = report.rows[i];
    out << "    {\"epoch\": " << r.epoch << ", \"inserted\": " << r.inserted
        << ", \"deleted\": " << r.deleted << ", \"tuples\": " << r.tuples
        << ", \"delta_witnesses\": " << r.delta_witnesses
        << ", \"family_sets\": " << r.family_sets
        << ", \"lower_bound\": " << r.lower_bound
        << ", \"upper_bound\": " << r.upper_bound
        << ", \"resolved\": " << BoolName(r.resolved)
        << ", \"unbreakable\": " << BoolName(r.unbreakable)
        << ", \"resilience\": " << r.resilience
        << ", \"oracle_checked\": " << BoolName(r.oracle_checked)
        << ", \"oracle_match\": " << BoolName(r.oracle_match)
        << ", \"oracle_resilience\": " << r.oracle_resilience
        << ", \"budget_exceeded\": " << BoolName(r.budget_exceeded)
        << ", \"error\": \"" << JsonEscape(r.error) << "\""
        << ", \"wall_ms\": " << StrFormat("%.3f", r.wall_ms)
        << ", \"oracle_ms\": " << StrFormat("%.3f", r.oracle_ms) << "}"
        << (i + 1 < report.rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

void PrintStreamTable(const StreamReport& report, std::FILE* out) {
  std::fprintf(out, "query: %s\n", report.query_text.c_str());
  std::fprintf(out, "%5s %5s %5s %7s %7s %6s %5s %5s %6s %5s %-8s %9s\n",
               "epoch", "+ins", "-del", "tuples", "d_wit", "sets", "lb", "ub",
               "solve", "rho", "oracle", "wall_ms");
  for (const StreamRow& r : report.rows) {
    const char* oracle = !r.oracle_checked ? "-"
                         : r.oracle_match  ? "match"
                                           : "MISMATCH";
    // A node-budget row carries a *feasible* value: an upper bound on
    // the true resilience. A witness-budget row has no value at all.
    std::string rho =
        r.budget_exceeded
            ? (r.resilience > 0 ? StrFormat("<=%d", r.resilience) : "-")
        : r.unbreakable ? "inf"
                        : StrFormat("%d", r.resilience);
    std::fprintf(out, "%5d %5d %5d %7d %7zu %6zu %5d %5d %6s %5s %-8s %9.3f%s\n",
                 r.epoch, r.inserted, r.deleted, r.tuples, r.delta_witnesses,
                 r.family_sets, r.lower_bound, r.upper_bound,
                 r.resolved ? "yes" : "-", rho.c_str(), oracle, r.wall_ms,
                 r.budget_exceeded ? "  (budget exceeded)" : "");
  }
  std::fprintf(out,
               "\n%zu epoch(s), %d mismatch(es), %d exact re-solve(s), %d "
               "over budget; incremental %.1f ms, oracle %.1f ms\n",
               report.rows.size(), report.mismatches, report.resolves,
               report.budget_exceeded, report.total_wall_ms,
               report.total_oracle_ms);
}

}  // namespace rescq
