// rescq — command-line driver for the resilience library.
//
// The first end-to-end scenario a user can run without writing C++:
// parse a Boolean conjunctive query, decide the complexity of RES(q)
// following the paper's dichotomy, and (given a tuple file) compute the
// resilience with the matching solver.
//
//   rescq classify "R(x,y), S(y,z), T(z,x)"
//   rescq classify --name q_chain
//   rescq resilience "R(x,y), R(y,z)" data/section2_chain.tuples
//   rescq explain --name q_Aperm
//   rescq catalog
//   rescq catalog q_AC3conf
//   rescq gen --scenario vc_er --size 12 --seed 1 --out er.tuples
//   rescq batch --scenarios all --max-size 8 --threads 4 --check-oracle

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "complexity/catalog.h"
#include "complexity/classifier.h"
#include "cq/parser.h"
#include "db/database.h"
#include "db/delta.h"
#include "db/tuple_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/engine.h"
#include "resilience/result.h"
#include "resilience/solver.h"
#include "server/loadgen.h"
#include "server/router.h"
#include "server/server.h"
#include "util/string_util.h"
#include "workload/batch.h"
#include "workload/churn.h"
#include "workload/generators.h"
#include "workload/report.h"
#include "workload/stream.h"

namespace rescq {
namespace {

int Usage(std::FILE* out) {
  std::fprintf(out,
               "rescq — resilience of binary conjunctive queries with "
               "self-joins (PODS 2020)\n"
               "\n"
               "usage:\n"
               "  rescq classify (<query> | --name <catalog-name>)\n"
               "      Decide the complexity of RES(q) and cite the paper "
               "pattern.\n"
               "  rescq resilience (<query> | --name <catalog-name>) "
               "<tuples-file> [--exact]\n"
               "                   [--witness-limit N] "
               "[--exact-node-budget N] [--solver-threads N]\n"
               "                   [--stats] [--metrics-json <file>] "
               "[--trace-out <file>]\n"
               "      Compute rho(q, D) over the tuple file; --exact forces "
               "the reference solver.\n"
               "      --stats prints plan/solve timings and the "
               "(deterministic) search counters;\n"
               "      --metrics-json snapshots the metrics registry "
               "(rescq-metrics/v1) and\n"
               "      --trace-out records a Chrome trace_event file for "
               "chrome://tracing / Perfetto.\n"
               "      --witness-limit caps the streamed witness enumeration "
               "(exceeding it is a\n"
               "      reported outcome, not a truncated answer); "
               "--exact-node-budget caps the\n"
               "      branch-and-bound search (the incumbent is returned as "
               "an upper bound);\n"
               "      --solver-threads fans independent hitting-set "
               "components out to workers\n"
               "      (the resilience value is identical for any count).\n"
               "  rescq explain (<query> | --name <catalog-name>)\n"
               "      Print the reusable resilience plan: pipeline stages, "
               "per-component\n"
               "      classification, and the registered solver (with paper "
               "citation)\n"
               "      the engine will dispatch to.\n"
               "  rescq catalog [<name>]\n"
               "      List every named query of the paper with its published\n"
               "      verdict and the classifier's verdict (or detail one).\n"
               "  rescq gen --scenario <name> [--size N] [--density D] "
               "[--seed S]\n"
               "            [--name <catalog-query>] [--out <file>] | --list\n"
               "      Write a generated instance as a tuple file (stdout by "
               "default);\n"
               "      --list shows the scenario catalog.\n"
               "  rescq batch [--scenarios <a,b|all>] [--names <q1,q2>] "
               "[--plan <file>]\n"
               "              [--sizes 4,6,8 | --max-size N] [--seeds 1,2] "
               "[--density D]\n"
               "              [--threads N] [--solver-threads N] "
               "[--check-oracle] [--oracle-cutoff N]\n"
               "              [--no-memoize] [--witness-limit N] "
               "[--exact-node-budget N]\n"
               "              [--csv <file>] [--json <file>] "
               "[--metrics-json <file>] [--trace-out <file>]\n"
               "      Sweep (query x scenario x size x seed) across a worker "
               "pool and\n"
               "      report per-cell resilience, solver, timing, and oracle "
               "checks.\n"
               "  rescq stream (<query> | --name <catalog-name>) "
               "<tuples-file>\n"
               "              (--updates <file> | --churn "
               "<insert|delete|mixed|hub>)\n"
               "              [--epochs N] [--rate R] [--seed S] "
               "[--emit-updates <file>]\n"
               "              [--check-oracle] [--witness-limit N] "
               "[--exact-node-budget N]\n"
               "              [--solver-threads N] [--csv <file>] "
               "[--json <file>]\n"
               "              [--metrics-json <file>] [--trace-out <file>]\n"
               "      Maintain the resilience incrementally under an update "
               "stream and\n"
               "      report one row per epoch (bounds, re-solves, timings); "
               "--updates\n"
               "      replays an update file, --churn generates one "
               "deterministically\n"
               "      (--emit-updates saves it), --check-oracle diffs every "
               "epoch against\n"
               "      a from-scratch exact solve.\n"
               "  rescq serve [--host H] [--port P] [--threads N] "
               "[--solver-threads N]\n"
               "              [--max-sessions N] [--max-base-tuples N] "
               "[--max-epoch-updates N]\n"
               "              [--default-witness-limit N] "
               "[--max-witness-limit N]\n"
               "              [--default-node-budget N] "
               "[--max-node-budget N]\n"
               "              [--max-resident-mb N] [--evict-idle-ms N]\n"
               "              [--no-load] [--no-shutdown] "
               "[--metrics-json <file>]\n"
               "      Run the resilience daemon: named incremental sessions "
               "over a\n"
               "      line-based TCP protocol (docs/SERVER.md). --port 0 "
               "picks an\n"
               "      ephemeral port (announced on stdout); SIGINT/SIGTERM "
               "stop it\n"
               "      gracefully and --metrics-json snapshots the registry "
               "on shutdown.\n"
               "  rescq route (--shard host:port ... | --shards N) [--host H] "
               "[--port P]\n"
               "              [--threads N] [--connect-timeout-ms N] "
               "[--request-timeout-ms N]\n"
               "              [--retries N] [--backoff-ms N] "
               "[--down-cooldown-ms N]\n"
               "              [--solver-threads N] [--no-shutdown] "
               "[--metrics-json <file>]\n"
               "      Run the consistent-hash sharding front-end: speaks the "
               "same line\n"
               "      protocol, places each named session on one backend "
               "`rescq serve`\n"
               "      shard and forwards its verbs there; `stats`/`sessions` "
               "aggregate\n"
               "      across all shards. --shard (repeatable) lists external "
               "backends;\n"
               "      --shards N spawns N in-process serve instances on "
               "ephemeral ports.\n"
               "  rescq loadgen --port P [--host H] [--connections M] "
               "[--scenario <name>]\n"
               "               [--query <q>] [--size N] [--density D] "
               "[--churn <kind>]\n"
               "               [--epochs N] [--rate R] [--seed S] "
               "[--check-oracle]\n"
               "               [--witness-limit N] [--node-budget N] "
               "[--session-prefix P]\n"
               "               [--timeout-ms N] [--csv <file>] "
               "[--json <file>]\n"
               "      Drive a live server: M concurrent connections each "
               "open a session,\n"
               "      push a generated base, and loop churn epochs + "
               "queries; reports\n"
               "      throughput and p50/p99/p999 latency "
               "(rescq-loadgen-report/v1);\n"
               "      --check-oracle diffs every served answer against a "
               "from-scratch\n"
               "      exact solve on a local mirror.\n"
               "  rescq help\n"
               "\n"
               "query syntax:   \"q :- R(x,y), S^x(y,z), A(x)\"   (head "
               "optional; ^x = exogenous)\n"
               "tuple file:     one fact per line, e.g. \"R(a,b)\"; '#' "
               "starts a comment\n");
  return out == stdout ? 0 : 2;
}

/// Prints "error: <message>" and returns exit code 2 (usage or input
/// error).
int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
}

/// Shared `--csv` / `--json` report files (batch | stream | loadgen).
struct ReportFiles {
  std::string csv_path;
  std::string json_path;

  /// Writes each requested file with the report's own writers; 0 on
  /// success, 2 (with a message printed) if a file cannot be written
  /// in full.
  template <typename Report>
  int Save(const Report& report,
           void (*write_csv)(const Report&, std::ostream&),
           void (*write_json)(const Report&, std::ostream&)) const {
    const std::pair<std::string, decltype(write_csv)> files[] = {
        {csv_path, write_csv}, {json_path, write_json}};
    for (const auto& [path, write] : files) {
      if (path.empty()) continue;
      std::ofstream out(path);
      write(report, out);
      if (!out.flush()) {
        return Fail("cannot write report file '" + path + "'");
      }
    }
    return 0;
  }
};

/// Shared `--metrics-json` / `--trace-out` handling for the solving
/// commands (resilience | batch | stream): either path arms its sink
/// before the run (Arm) and writes the file after it (Flush). With
/// neither flag the instrumentation stays disabled and costs one
/// relaxed load per call site.
struct ObsSinks {
  std::string metrics_path;
  std::string trace_path;

  void Arm() const {
    if (!metrics_path.empty()) obs::SetMetricsEnabled(true);
    if (!trace_path.empty()) obs::StartTrace();
  }

  /// 0 on success, 2 on I/O failure (with a message printed).
  int Flush() const {
    if (!trace_path.empty()) {
      obs::StopTrace();
      if (!obs::WriteTraceJson(trace_path)) {
        return Fail("cannot write trace file '" + trace_path + "'");
      }
    }
    if (!metrics_path.empty() &&
        !obs::WriteMetricsJson(obs::GlobalRegistry(), metrics_path)) {
      return Fail("cannot write metrics file '" + metrics_path + "'");
    }
    return 0;
  }
};

// --- flags: one table per subcommand, one parse loop -------------------------

/// One row of a subcommand's flag table. `apply` gets the flag's value
/// (empty for a switch) and returns false after printing an error.
struct Flag {
  const char* name;
  bool takes_value;
  std::function<bool(const std::string& value)> apply;
};
using FlagTable = std::vector<Flag>;

/// Prints "error: <flag> needs <what>, got '<value>'"; returns false.
bool FlagError(const char* flag, const std::string& what,
               const std::string& value) {
  std::fprintf(stderr, "error: %s needs %s, got '%s'\n", flag, what.c_str(),
               value.c_str());
  return false;
}

// The binders: each ties one flag to the options field it sets.

Flag Switch(const char* name, bool* dst, bool value = true) {
  return {name, false, [=](const std::string&) {
            *dst = value;
            return true;
          }};
}

Flag Text(const char* name, std::string* dst) {
  return {name, true, [=](const std::string& v) {
            *dst = v;
            return true;
          }};
}

Flag PositiveInt(const char* name, int* dst) {
  return {name, true, [=](const std::string& v) {
            return ParsePositiveInt(v, dst) ||
                   FlagError(name, "a positive integer", v);
          }};
}

/// Any unsigned field (uint64_t, size_t, int64_t milliseconds, a port),
/// optionally confined to lo..hi.
template <typename T>
Flag Unsigned(const char* name, T* dst, uint64_t lo = 0,
              uint64_t hi = UINT64_MAX) {
  return {name, true, [=](const std::string& v) {
            uint64_t u = 0;
            if (!ParseUint64(v, &u)) {
              return FlagError(name, "an unsigned integer", v);
            }
            if (u < lo || u > hi) {
              return FlagError(
                  name, std::to_string(lo) + ".." + std::to_string(hi), v);
            }
            *dst = static_cast<T>(u);
            return true;
          }};
}

Flag Probability(const char* name, double* dst) {
  return {name, true, [=](const std::string& v) {
            return ParseProbability(v, dst) ||
                   FlagError(name, "a number in [0,1]", v);
          }};
}

/// A value flag with its own rule: lists, repeatable flags, no-ops.
Flag Custom(const char* name, std::function<bool(const std::string&)> apply) {
  return {name, true, std::move(apply)};
}

// The flags several subcommands share, declared once.

FlagTable BudgetFlags(size_t* witness_limit, uint64_t* node_budget) {
  return {Unsigned("--witness-limit", witness_limit),
          Unsigned("--exact-node-budget", node_budget)};
}

Flag SolverThreadsFlag(int* dst) {
  return PositiveInt("--solver-threads", dst);
}

FlagTable OutputFlags(ReportFiles* files) {
  return {Text("--csv", &files->csv_path), Text("--json", &files->json_path)};
}

Flag MetricsFlag(ObsSinks* sinks) {
  return Text("--metrics-json", &sinks->metrics_path);
}

FlagTable SinkFlags(ObsSinks* sinks) {
  return {MetricsFlag(sinks), Text("--trace-out", &sinks->trace_path)};
}

/// `--host` and `--port`: a listener may ask for port 0 (ephemeral), a
/// client needs a real one (min_port 1).
FlagTable AddressFlags(std::string* host, int* port, uint64_t min_port) {
  return {Text("--host", host), Unsigned("--port", port, min_port, 65535)};
}

FlagTable Flags(std::initializer_list<FlagTable> groups) {
  FlagTable all;
  for (const FlagTable& group : groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  return all;
}

/// The one flag loop. For the commands that take a query and a tuple
/// file, arguments outside the table that do not start with `--` (and
/// `--name`, which the query resolver reads) go to `positional`; any
/// other argument outside the table is an unknown flag. Returns false
/// after printing an error.
bool ParseFlags(const char* command, const std::vector<std::string>& args,
                const FlagTable& table, std::vector<std::string>* positional) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto flag = std::find_if(table.begin(), table.end(),
                             [&](const Flag& f) { return a == f.name; });
    if (flag == table.end()) {
      if (positional == nullptr || (StartsWith(a, "--") && a != "--name")) {
        std::fprintf(stderr, "error: unknown %s flag '%s'\n", command,
                     a.c_str());
        return false;
      }
      positional->push_back(a);
    } else if (!flag->takes_value) {
      flag->apply("");
    } else if (i + 1 >= args.size()) {
      std::fprintf(stderr, "error: %s needs a value\n", a.c_str());
      return false;
    } else if (!flag->apply(args[++i])) {
      return false;
    }
  }
  return true;
}

/// Resolves the query argument: either a literal query string or, after
/// `--name`, a PaperCatalog() entry. Returns nullopt (with a message
/// printed) on failure.
std::optional<Query> ResolveQuery(const std::vector<std::string>& args,
                                  size_t* consumed) {
  if (args.empty()) {
    std::fprintf(stderr, "error: missing query argument\n");
    return std::nullopt;
  }
  if (args[0] == "--name") {
    if (args.size() < 2) {
      std::fprintf(stderr, "error: --name needs a catalog query name\n");
      return std::nullopt;
    }
    std::optional<CatalogEntry> entry = FindCatalogEntry(args[1]);
    if (!entry) {
      std::fprintf(stderr,
                   "error: no catalog query named '%s' (try `rescq "
                   "catalog`)\n",
                   args[1].c_str());
      return std::nullopt;
    }
    *consumed = 2;
    return MustParseQuery(entry->text);
  }
  ParseResult parsed = ParseQuery(args[0]);
  if (!parsed.ok) {
    std::fprintf(stderr, "error: cannot parse query: %s\n",
                 parsed.error.c_str());
    return std::nullopt;
  }
  *consumed = 1;
  return parsed.query;
}

/// Loads a tuple file into db via db/tuple_io, reporting errors on
/// stderr.
bool LoadTuples(const std::string& path, Database* db) {
  std::string error;
  if (!LoadTupleFile(path, db, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  return true;
}

void PrintClassification(const Query& q, const Classification& c) {
  std::printf("query:       %s\n", q.ToString().c_str());
  if (!(c.minimized == q)) {
    std::printf("minimized:   %s\n", c.minimized.ToString().c_str());
  }
  if (!(c.normalized == c.minimized)) {
    std::printf("normalized:  %s\n", c.normalized.ToString().c_str());
  }
  std::printf("complexity:  RES(q) is %s\n", ComplexityName(c.complexity));
  std::printf("pattern:     %s\n", c.pattern.c_str());
  std::printf("reason:      %s\n", c.reason.c_str());
}

int CmdClassify(const std::vector<std::string>& args) {
  size_t consumed = 0;
  std::optional<Query> q = ResolveQuery(args, &consumed);
  if (!q) return 2;
  if (consumed != args.size()) {
    return Fail("unexpected argument '" + args[consumed] + "'");
  }
  PrintClassification(*q, ClassifyResilience(*q));
  return 0;
}

int CmdResilience(const std::vector<std::string>& args) {
  std::vector<std::string> positional;
  bool stats = false;
  EngineOptions options;
  ObsSinks sinks;
  FlagTable flags =
      Flags({{Switch("--exact", &options.force_exact),
              Switch("--stats", &stats),
              SolverThreadsFlag(&options.solver_threads)},
             BudgetFlags(&options.witness_limit, &options.exact_node_budget),
             SinkFlags(&sinks)});
  if (!ParseFlags("resilience", args, flags, &positional)) return 2;
  size_t consumed = 0;
  std::optional<Query> q = ResolveQuery(positional, &consumed);
  if (!q) return 2;
  if (positional.size() != consumed + 1) {
    return Fail("expected exactly one tuple file argument");
  }

  Database db;
  if (!LoadTuples(positional[consumed], &db)) return 2;
  for (const std::string& rel : q->RelationNames()) {
    int id = db.RelationId(rel);
    if (id < 0) {
      std::fprintf(stderr, "warning: relation '%s' has no tuples in '%s'\n",
                   rel.c_str(), positional[consumed].c_str());
    } else if (db.relation_arity(id) != q->RelationArity(rel)) {
      std::fprintf(stderr,
                   "warning: relation '%s' has arity %d in the query but "
                   "arity %d in '%s'; no fact can match\n",
                   rel.c_str(), q->RelationArity(rel), db.relation_arity(id),
                   positional[consumed].c_str());
    }
  }

  Classification c = ClassifyResilience(*q);
  std::printf("query:       %s\n", q->ToString().c_str());
  std::printf("complexity:  RES(q) is %s (%s)\n", ComplexityName(c.complexity),
              c.reason.c_str());
  std::printf("database:    %d tuples over %d constants\n",
              db.NumActiveTuples(), db.domain_size());
  sinks.Arm();
  ResilienceEngine engine(options);
  SolveOutcome outcome = engine.Solve(*q, db);
  if (stats) {
    // Timings go through %.3f so golden tests can normalize every
    // decimal number to <t>; the counters are deterministic (satellite
    // of the per-component search: thread-count invariant).
    std::printf("stats:\n");
    std::printf("  plan:        %.3f ms (%s)\n", outcome.plan_ms,
                options.force_exact      ? "skipped: --exact"
                : outcome.plan_cache_hit ? "cache hit"
                                         : "cache miss");
    std::printf("  solve:       %.3f ms\n", outcome.solve_ms);
    std::printf("  witnesses:   %zu streamed, %zu distinct sets\n",
                outcome.exact.witnesses, outcome.exact.witness_sets);
    std::printf("  search:      %d component(s), %llu node(s), "
                "%llu packing / %llu flow prune(s)\n",
                outcome.exact.components,
                static_cast<unsigned long long>(outcome.exact.nodes),
                static_cast<unsigned long long>(outcome.exact.packing_prunes),
                static_cast<unsigned long long>(outcome.exact.flow_prunes));
  }
  if (outcome.exact.witnesses > 0) {
    std::printf(
        "exact search: %zu witnesses -> %zu sets, %d component(s), "
        "%llu node(s), %llu packing / %llu flow prune(s)%s\n",
        outcome.exact.witnesses, outcome.exact.witness_sets,
        outcome.exact.components,
        static_cast<unsigned long long>(outcome.exact.nodes),
        static_cast<unsigned long long>(outcome.exact.packing_prunes),
        static_cast<unsigned long long>(outcome.exact.flow_prunes),
        outcome.exact.node_budget_exceeded
            ? "  [node budget exhausted: upper bound]"
            : "");
  }
  if (!outcome.error.empty()) {
    std::printf("resilience:  not computed — %s\n", outcome.error.c_str());
    sinks.Flush();
    return 1;
  }
  const ResilienceResult& r = outcome.result;
  if (r.unbreakable) {
    std::printf(
        "resilience:  undefined — some witness uses only exogenous "
        "tuples, so no endogenous deletion can falsify q\n");
    return sinks.Flush();
  }
  std::printf("resilience:  rho(q, D) = %d  [solver: %s]\n", r.resilience,
              SolverKindName(r.solver));
  if (!r.contingency.empty()) {
    std::printf("contingency: delete");
    for (TupleId t : r.contingency) {
      std::printf(" %s", db.TupleToString(t).c_str());
    }
    std::printf("\n");
  }
  bool broken = VerifyContingency(*q, db, r.contingency);
  std::printf("verified:    query %s after deleting the contingency set\n",
              broken ? "is false" : "IS STILL TRUE (solver bug!)");
  int sink_rc = sinks.Flush();
  if (sink_rc != 0) return sink_rc;
  return broken ? 0 : 1;
}

int CmdExplain(const std::vector<std::string>& args) {
  size_t consumed = 0;
  std::optional<Query> q = ResolveQuery(args, &consumed);
  if (!q) return 2;
  if (consumed != args.size()) {
    return Fail("unexpected argument '" + args[consumed] + "'");
  }
  ResilienceEngine engine;
  std::shared_ptr<const ResiliencePlan> plan = engine.Plan(*q);
  std::fputs(plan->Explain().c_str(), stdout);
  return 0;
}

int CmdCatalog(const std::vector<std::string>& args) {
  if (args.size() > 1) return Fail("catalog takes at most one name");
  if (args.size() == 1) {
    std::optional<CatalogEntry> entry = FindCatalogEntry(args[0]);
    if (!entry) return Fail("no catalog query named '" + args[0] + "'");
    std::printf("name:        %s\n", entry->name.c_str());
    std::printf("published:   %s (%s)\n", ComplexityName(entry->expected),
                entry->reference.c_str());
    Query q = MustParseQuery(entry->text);
    PrintClassification(q, ClassifyResilience(q));
    return 0;
  }

  int mismatches = 0;
  std::printf("%-18s %-13s %-13s %s\n", "name", "published", "classifier",
              "reference");
  for (const CatalogEntry& entry : PaperCatalog()) {
    Classification c = ClassifyResilience(MustParseQuery(entry.text));
    bool match = c.complexity == entry.expected;
    if (!match) ++mismatches;
    std::printf("%-18s %-13s %-13s %s%s\n", entry.name.c_str(),
                ComplexityName(entry.expected), ComplexityName(c.complexity),
                entry.reference.c_str(), match ? "" : "   << MISMATCH");
  }
  std::printf("\n%zu catalog queries; classifier agrees on %zu.\n",
              PaperCatalog().size(), PaperCatalog().size() - mismatches);
  return mismatches == 0 ? 0 : 1;
}

// --- gen / batch: the workload subsystem ------------------------------------

int CmdGen(const std::vector<std::string>& args) {
  std::string scenario_name, out_path, catalog_name;
  ScenarioParams params;
  bool list = false;
  FlagTable flags = {Switch("--list", &list),
                     Text("--scenario", &scenario_name),
                     PositiveInt("--size", &params.size),
                     Probability("--density", &params.density),
                     Unsigned("--seed", &params.seed),
                     Text("--out", &out_path),
                     Text("--name", &catalog_name)};
  if (!ParseFlags("gen", args, flags, nullptr)) return 2;
  if (list) {
    std::printf("%-15s %-28s %s\n", "scenario", "default query",
                "description");
    for (const Scenario& s : ScenarioCatalog()) {
      std::printf("%-15s %-28s %s\n", s.name.c_str(), s.query.c_str(),
                  s.description.c_str());
    }
    return 0;
  }
  if (scenario_name.empty()) {
    return Fail("gen needs --scenario <name> (or --list)");
  }
  const Scenario* scenario = FindScenario(scenario_name);
  if (scenario == nullptr) {
    return Fail("unknown scenario '" + scenario_name +
                "' (try `rescq gen --list`)");
  }
  std::string query_text = scenario->query;
  std::function<Database(const ScenarioParams&)> generate = scenario->generate;
  if (!catalog_name.empty()) {
    // Only the generic filler can honor an arbitrary query; the shaped
    // generators produce data for their own family.
    if (scenario_name != "uniform") {
      return Fail("--name only combines with --scenario uniform");
    }
    std::optional<CatalogEntry> entry = FindCatalogEntry(catalog_name);
    if (!entry) return Fail("no catalog query named '" + catalog_name + "'");
    query_text = entry->text;
    Query q = MustParseQuery(entry->text);
    generate = [q](const ScenarioParams& p) { return GenerateUniform(q, p); };
  }

  Database db = generate(params);
  std::string header = StrFormat(
      "generated by: rescq gen --scenario %s --size %d --density %g "
      "--seed %llu%s%s\nquery: %s\n%d tuples over %d constants",
      scenario_name.c_str(), params.size, params.density,
      static_cast<unsigned long long>(params.seed),
      catalog_name.empty() ? "" : " --name ", catalog_name.c_str(),
      query_text.c_str(), db.NumActiveTuples(), db.domain_size());
  if (out_path.empty()) {
    WriteTuples(db, std::cout, header);
    return 0;
  }
  std::string error;
  if (!SaveTupleFile(db, out_path, header, &error)) return Fail(error);
  std::printf("wrote %d tuples (%s scenario, seed %llu) to %s\n",
              db.NumActiveTuples(), scenario_name.c_str(),
              static_cast<unsigned long long>(params.seed), out_path.c_str());
  return 0;
}

int CmdBatch(const std::vector<std::string>& args) {
  BatchPlan plan;
  plan.scenarios.clear();
  BatchOptions options;
  ReportFiles files;
  ObsSinks sinks;
  int max_size = 0;
  bool sizes_set = false;

  // A plan file gives the baseline; explicit flags override it, so the
  // file is parsed first regardless of its position among the flags.
  for (size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == "--plan") {
      std::string error;
      if (!ParsePlanFile(args[i + 1], &plan, &options, &error)) {
        return Fail(error);
      }
    }
  }
  FlagTable flags = Flags(
      {{Custom("--plan", [](const std::string&) { return true; }),  // pre-scan
        Custom("--scenarios",
               [&](const std::string& v) {
                 plan.scenarios =
                     v == "all" ? AllScenarioNames() : SplitTrimmed(v, ',');
                 return true;
               }),
        Custom("--names",
               [&](const std::string& v) {
                 plan.query_names = SplitTrimmed(v, ',');
                 return true;
               }),
        Custom("--sizes",
               [&](const std::string& v) {
                 sizes_set = true;
                 return ParseIntList(v, &plan.sizes) ||
                        FlagError("--sizes",
                                  "a comma list of positive integers", v);
               }),
        PositiveInt("--max-size", &max_size),
        Custom("--seeds",
               [&](const std::string& v) {
                 return ParseSeedList(v, &plan.seeds) ||
                        FlagError("--seeds",
                                  "a comma list of unsigned integers", v);
               }),
        Probability("--density", &plan.density),
        PositiveInt("--threads", &options.threads),
        SolverThreadsFlag(&options.solver_threads),
        Switch("--check-oracle", &options.check_oracle),
        PositiveInt("--oracle-cutoff", &options.oracle_cutoff),
        Switch("--no-memoize", &options.memoize, false)},
       BudgetFlags(&options.witness_limit, &options.exact_node_budget),
       OutputFlags(&files), SinkFlags(&sinks)});
  if (!ParseFlags("batch", args, flags, nullptr)) return 2;
  if (max_size > 0) {
    if (sizes_set) {
      return Fail("--sizes and --max-size are mutually exclusive");
    }
    plan.sizes.clear();
    for (int s = 2; s <= max_size; s += 2) plan.sizes.push_back(s);
    // An odd --max-size is still swept: the grid is 2,4,...,N-1,N.
    if (plan.sizes.empty() || plan.sizes.back() != max_size) {
      plan.sizes.push_back(max_size);
    }
  }
  if (plan.scenarios.empty() && plan.query_names.empty()) {
    plan.scenarios = AllScenarioNames();
  }

  std::vector<BatchJob> jobs;
  std::string error;
  if (!ExpandPlan(plan, &jobs, &error)) return Fail(error);
  sinks.Arm();
  BatchReport report = RunBatch(jobs, options);
  PrintReportTable(report, stdout);
  int rc = files.Save(report, WriteReportCsv, WriteReportJson);
  if (rc == 0) rc = sinks.Flush();
  if (rc != 0) return rc;
  return report.mismatches == 0 ? 0 : 1;
}

int CmdStream(const std::vector<std::string>& args) {
  std::vector<std::string> positional;
  std::string updates_path, churn_kind, emit_path;
  ReportFiles files;
  ChurnParams churn;
  StreamOptions options;
  ObsSinks sinks;
  FlagTable flags =
      Flags({{Text("--updates", &updates_path), Text("--churn", &churn_kind),
              PositiveInt("--epochs", &churn.epochs),
              Probability("--rate", &churn.rate),
              Unsigned("--seed", &churn.seed),
              Text("--emit-updates", &emit_path),
              Switch("--check-oracle", &options.check_oracle),
              SolverThreadsFlag(&options.solver_threads)},
             BudgetFlags(&options.witness_limit, &options.exact_node_budget),
             OutputFlags(&files), SinkFlags(&sinks)});
  if (!ParseFlags("stream", args, flags, &positional)) return 2;
  size_t consumed = 0;
  std::optional<Query> q = ResolveQuery(positional, &consumed);
  if (!q) return 2;
  if (positional.size() != consumed + 1) {
    return Fail("expected exactly one tuple file argument");
  }
  if (updates_path.empty() == churn_kind.empty()) {
    return Fail(
        "stream needs exactly one of --updates <file> or --churn <kind>");
  }
  if (!churn_kind.empty() && !IsChurnKind(churn_kind)) {
    std::fprintf(stderr, "error: unknown churn kind '%s' (one of:",
                 churn_kind.c_str());
    for (const ChurnKind& k : ChurnCatalog()) {
      std::fprintf(stderr, " %s", k.name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }

  Database db;
  if (!LoadTuples(positional[consumed], &db)) return 2;

  UpdateLog log;
  std::string error;
  if (!updates_path.empty()) {
    if (!LoadUpdateFile(updates_path, &log, &error) ||
        !ValidateUpdateLog(log, db, &error)) {
      return Fail(error);
    }
  } else {
    log = GenerateChurn(db, churn_kind, churn);
  }
  if (!emit_path.empty()) {
    std::string header = StrFormat(
        "generated by: rescq stream --churn %s --epochs %d --rate %g "
        "--seed %llu\nbase: %s (%d tuples)\n%zu update(s) in %zu epoch(s)",
        churn_kind.c_str(), churn.epochs, churn.rate,
        static_cast<unsigned long long>(churn.seed),
        positional[consumed].c_str(), db.NumActiveTuples(), log.size(),
        log.epochs.size());
    if (churn_kind.empty()) header = "replayed from: " + updates_path;
    if (!SaveUpdateFile(log, emit_path, header, &error)) return Fail(error);
  }

  std::string query_name = positional[0] == "--name" ? positional[1] : "query";
  sinks.Arm();
  StreamReport report = RunStream(*q, query_name, db, log, options);
  PrintStreamTable(report, stdout);
  int rc = files.Save(report, WriteStreamCsv, WriteStreamJson);
  if (rc == 0) rc = sinks.Flush();
  if (rc != 0) return rc;
  return report.mismatches == 0 ? 0 : 1;
}

// The running daemon's stop, for the signal handler: a plain function
// pointer and its argument, so the handler stays async-signal-safe
// (SignalStop is a single pipe write).
void (*g_stop)(void*) = nullptr;
void* g_daemon = nullptr;

extern "C" void HandleStopSignal(int) {
  if (g_stop != nullptr) g_stop(g_daemon);
}

/// The serve/route lifecycle. Metrics are armed before the daemon is
/// built: the server.* / shard.* series are a daemon's whole
/// observability story, so serving always collects them. Then Start,
/// the announce line (the startup contract: tests and the smoke harness
/// parse the resolved port out of it), SIGINT/SIGTERM -> SignalStop
/// until Wait returns, `stopped`, and the metrics snapshot.
template <typename Daemon, typename... Args>
int RunDaemon(const ObsSinks& sinks,
              const std::function<void(int port)>& announce,
              const std::function<void()>& stopped, Args&&... args) {
  obs::SetMetricsEnabled(true);
  Daemon daemon(std::forward<Args>(args)...);
  std::string error;
  if (!daemon.Start(&error)) return Fail(error);
  announce(daemon.port());
  std::fflush(stdout);
  g_daemon = &daemon;
  g_stop = [](void* d) { static_cast<Daemon*>(d)->SignalStop(); };
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  daemon.Wait();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_stop = nullptr;
  stopped();
  return sinks.Flush();
}

int CmdServe(const std::vector<std::string>& args) {
  ServerOptions options;
  ServerLimits& limits = options.limits;
  uint64_t resident_mb = 0;
  ObsSinks sinks;
  FlagTable flags = Flags(
      {AddressFlags(&options.host, &options.port, 0),
       {PositiveInt("--threads", &options.threads),
        SolverThreadsFlag(&limits.solver_threads),
        Unsigned("--max-sessions", &limits.max_sessions),
        Unsigned("--max-base-tuples", &limits.max_base_tuples),
        Unsigned("--max-epoch-updates", &limits.max_epoch_updates),
        Unsigned("--default-witness-limit", &limits.default_witness_limit),
        Unsigned("--max-witness-limit", &limits.max_witness_limit),
        Unsigned("--default-node-budget", &limits.default_node_budget),
        Unsigned("--max-node-budget", &limits.max_node_budget),
        Unsigned("--max-resident-mb", &resident_mb),
        Unsigned("--evict-idle-ms", &limits.evict_idle_ms),
        Switch("--no-load", &limits.allow_load, false),
        Switch("--no-shutdown", &limits.allow_shutdown, false),
        MetricsFlag(&sinks)}});
  if (!ParseFlags("serve", args, flags, nullptr)) return 2;
  limits.max_resident_bytes = resident_mb * 1024 * 1024;

  EngineOptions engine_options;
  engine_options.witness_limit = limits.max_witness_limit;
  engine_options.exact_node_budget = limits.max_node_budget;
  ResilienceEngine engine(engine_options);
  return RunDaemon<ResilienceServer>(
      sinks,
      [&](int port) {
        std::printf("listening on %s:%d\n", options.host.c_str(), port);
      },
      [] { std::printf("server stopped\n"); }, options, &engine);
}

int CmdRoute(const std::vector<std::string>& args) {
  RouterOptions options;
  size_t spawn_shards = 0;
  int spawn_solver_threads = 0;  // 0: not given
  ObsSinks sinks;
  FlagTable flags = Flags(
      {AddressFlags(&options.host, &options.port, 0),
       {PositiveInt("--threads", &options.threads),
        Custom("--shard",
               [&](const std::string& v) {
                 ShardSpec spec;
                 std::string error;
                 if (!ParseShardSpec(v, &spec, &error)) {
                   Fail(error);
                   return false;
                 }
                 options.shards.push_back(spec);
                 return true;
               }),
        Unsigned("--shards", &spawn_shards, 1, 64),
        SolverThreadsFlag(&spawn_solver_threads),
        PositiveInt("--connect-timeout-ms", &options.connect_timeout_ms),
        PositiveInt("--request-timeout-ms", &options.request_timeout_ms),
        PositiveInt("--retries", &options.retries),
        PositiveInt("--backoff-ms", &options.backoff_ms),
        PositiveInt("--down-cooldown-ms", &options.down_cooldown_ms),
        Switch("--no-shutdown", &options.allow_shutdown, false),
        MetricsFlag(&sinks)}});
  if (!ParseFlags("route", args, flags, nullptr)) return 2;
  if (spawn_shards > 0 && !options.shards.empty()) {
    return Fail("--shards and --shard are exclusive");
  }
  if (spawn_shards == 0 && options.shards.empty()) {
    return Fail("route needs backends (--shard host:port ... or --shards N)");
  }
  if (spawn_shards == 0 && spawn_solver_threads > 0) {
    return Fail("--solver-threads only applies with --shards");
  }

  InProcessShards spawned;
  if (spawn_shards > 0) {
    ServerOptions base;
    base.threads = 2;
    if (spawn_solver_threads > 0) {
      base.limits.solver_threads = spawn_solver_threads;
    }
    std::string error;
    if (!spawned.Start(spawn_shards, base, &error)) return Fail(error);
    options.shards = spawned.specs();
    for (size_t i = 0; i < options.shards.size(); ++i) {
      std::printf("shard %zu: %s\n", i, options.shards[i].Label().c_str());
    }
  }
  return RunDaemon<ShardRouter>(
      sinks,
      [&](int port) {
        std::printf("routing on %s:%d across %zu shards\n",
                    options.host.c_str(), port, options.shards.size());
      },
      [&] {
        spawned.Stop();
        std::printf("router stopped\n");
      },
      options);
}

int CmdLoadgen(const std::vector<std::string>& args) {
  LoadgenOptions options;
  ReportFiles files;
  FlagTable flags =
      Flags({AddressFlags(&options.host, &options.port, 1),
             {PositiveInt("--connections", &options.connections),
              Text("--scenario", &options.scenario),
              Text("--query", &options.query),
              PositiveInt("--size", &options.size),
              Probability("--density", &options.density),
              Text("--churn", &options.churn),
              PositiveInt("--epochs", &options.epochs),
              Probability("--rate", &options.rate),
              Unsigned("--seed", &options.seed),
              Switch("--check-oracle", &options.check_oracle),
              Unsigned("--witness-limit", &options.witness_limit),
              Unsigned("--node-budget", &options.node_budget),
              Text("--session-prefix", &options.session_prefix),
              Unsigned("--timeout-ms", &options.timeout_ms, 0, INT32_MAX)},
             OutputFlags(&files)});
  if (!ParseFlags("loadgen", args, flags, nullptr)) return 2;
  if (options.port <= 0) {
    return Fail("loadgen needs --port (the port `rescq serve` announced)");
  }

  LoadgenReport report = RunLoadgen(options);
  PrintLoadgenTable(report, stdout);
  int rc = files.Save(report, WriteLoadgenCsv, WriteLoadgenJson);
  if (rc != 0) return rc;
  if (!report.error.empty()) return 2;
  return (report.oracle_mismatches == 0 && report.err_replies == 0) ? 0 : 1;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage(stderr);
  std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "help" || cmd == "--help" || cmd == "-h") return Usage(stdout);
  if (cmd == "classify") return CmdClassify(args);
  if (cmd == "resilience") return CmdResilience(args);
  if (cmd == "explain") return CmdExplain(args);
  if (cmd == "catalog") return CmdCatalog(args);
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "batch") return CmdBatch(args);
  if (cmd == "stream") return CmdStream(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "route") return CmdRoute(args);
  if (cmd == "loadgen") return CmdLoadgen(args);
  std::fprintf(stderr, "error: unknown command '%s'\n\n", cmd.c_str());
  return Usage(stderr);
}

}  // namespace
}  // namespace rescq

int main(int argc, char** argv) { return rescq::Run(argc, argv); }
