#include "workload/batch.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "complexity/catalog.h"
#include "cq/parser.h"
#include "resilience/engine.h"
#include "resilience/solver.h"
#include "util/clock.h"
#include "util/fnv.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "workload/generators.h"

namespace rescq {

namespace {

/// Cache of finished cells keyed by (query text, db fingerprint). A
/// worker that finds the key reuses the solver outcome instead of
/// re-running it; identity fields are still taken from its own job.
struct Memo {
  std::mutex mu;
  std::unordered_map<std::string, BatchCell> cells;
};

void CopyOutcome(const BatchCell& from, BatchCell* to) {
  to->unbreakable = from.unbreakable;
  to->resilience = from.resilience;
  to->solver = from.solver;
  to->verified = from.verified;
  to->contingency = from.contingency;
  to->oracle_checked = from.oracle_checked;
  to->oracle_match = from.oracle_match;
  to->oracle_resilience = from.oracle_resilience;
  to->budget_exceeded = from.budget_exceeded;
  to->error = from.error;
}

BatchCell RunCell(const BatchJob& job, const BatchOptions& opts,
                  ResilienceEngine* engine, Memo* memo) {
  BatchCell cell;
  cell.query = job.query_name;
  cell.query_text = job.query_text;
  cell.scenario = job.scenario;
  cell.size = job.params.size;
  cell.density = job.params.density;
  cell.seed = job.params.seed;

  Database db = job.generate(job.params);
  cell.tuples = db.NumActiveTuples();
  cell.domain = db.domain_size();
  cell.fingerprint = DatabaseFingerprint(db);

  const std::string key = job.query_text + "|" + cell.fingerprint;
  if (opts.memoize) {
    std::lock_guard<std::mutex> lock(memo->mu);
    auto it = memo->cells.find(key);
    if (it != memo->cells.end()) {
      CopyOutcome(it->second, &cell);
      cell.memo_hit = true;
      return cell;
    }
  }

  Query q = MustParseQuery(job.query_text);
  auto start = Clock::now();
  SolveOutcome outcome = engine->Solve(q, db);
  cell.wall_ms = MsSince(start);
  const ResilienceResult& r = outcome.result;
  cell.plan_cache_hit = outcome.plan_cache_hit;
  if (!outcome.error.empty()) {
    // Structured budget outcome: the result is the default and must not
    // be verified or oracle-checked — the cell reports the error
    // instead of masquerading as a solved (or mismatched) one.
    cell.budget_exceeded = true;
    cell.error = outcome.error;
    cell.verified = true;  // nothing to verify; not a solver bug
    if (opts.memoize) {
      std::lock_guard<std::mutex> lock(memo->mu);
      memo->cells.emplace(key, cell);
    }
    return cell;
  }
  cell.unbreakable = r.unbreakable;
  cell.resilience = r.resilience;
  cell.solver = r.solver;
  cell.verified = r.unbreakable || VerifyContingency(q, db, r.contingency);
  cell.contingency = std::move(outcome.result.contingency);
  if (outcome.exact.node_budget_exceeded) {
    // The incumbent is a verified contingency set but only an upper
    // bound on the resilience: mark the cell and skip the oracle — an
    // exhausted budget the user asked for is not a solver mismatch.
    cell.budget_exceeded = true;
    cell.error = "exact node budget exhausted: resilience is an upper bound";
  }

  if (opts.check_oracle && !cell.budget_exceeded &&
      cell.tuples <= opts.oracle_cutoff) {
    ResilienceResult oracle = ComputeResilienceReference(q, db);
    cell.oracle_checked = true;
    cell.oracle_resilience = oracle.unbreakable ? -1 : oracle.resilience;
    cell.oracle_match = oracle.unbreakable == r.unbreakable &&
                        (r.unbreakable || oracle.resilience == r.resilience);
  }

  if (opts.memoize) {
    std::lock_guard<std::mutex> lock(memo->mu);
    memo->cells.emplace(key, cell);
  }
  return cell;
}

bool ParseBool(const std::string& text, bool* out) {
  if (text == "true" || text == "1" || text == "yes") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

bool ParseIntList(const std::string& text, std::vector<int>* out) {
  out->clear();
  for (const std::string& item : SplitTrimmed(text, ',')) {
    int v = 0;
    if (!ParsePositiveInt(item, &v)) return false;
    out->push_back(v);
  }
  return !out->empty();
}

bool ParseSeedList(const std::string& text, std::vector<uint64_t>* out) {
  out->clear();
  for (const std::string& item : SplitTrimmed(text, ',')) {
    uint64_t v = 0;
    if (!ParseUint64(item, &v)) return false;
    out->push_back(v);
  }
  return !out->empty();
}

bool ExpandPlan(const BatchPlan& plan, std::vector<BatchJob>* jobs,
                std::string* error) {
  jobs->clear();
  if (plan.scenarios.empty() && plan.query_names.empty()) {
    *error = "plan selects no scenarios and no queries";
    return false;
  }
  if (plan.sizes.empty() || plan.seeds.empty()) {
    *error = "plan needs at least one size and one seed";
    return false;
  }
  for (const std::string& name : plan.scenarios) {
    const Scenario* scenario = FindScenario(name);
    if (scenario == nullptr) {
      *error = "unknown scenario '" + name + "' (try `rescq gen --list`)";
      return false;
    }
    for (int size : plan.sizes) {
      for (uint64_t seed : plan.seeds) {
        BatchJob job;
        job.query_name = scenario->name;
        job.query_text = scenario->query;
        job.scenario = scenario->name;
        job.params = {size, plan.density, seed};
        job.generate = scenario->generate;
        jobs->push_back(std::move(job));
      }
    }
  }
  for (const std::string& name : plan.query_names) {
    std::optional<CatalogEntry> entry = FindCatalogEntry(name);
    if (!entry) {
      *error = "unknown catalog query '" + name + "' (try `rescq catalog`)";
      return false;
    }
    Query q = MustParseQuery(entry->text);
    for (int size : plan.sizes) {
      for (uint64_t seed : plan.seeds) {
        BatchJob job;
        job.query_name = entry->name;
        job.query_text = entry->text;
        job.scenario = "uniform";
        job.params = {size, plan.density, seed};
        job.generate = [q](const ScenarioParams& p) {
          return GenerateUniform(q, p);
        };
        jobs->push_back(std::move(job));
      }
    }
  }
  return true;
}

bool ParsePlanFile(const std::string& path, BatchPlan* plan,
                   BatchOptions* options, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open plan file '" + path + "'";
    return false;
  }
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string_view line = Trim(raw);
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = Trim(line.substr(0, hash));
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      *error = StrFormat("%s:%d: expected `key = value`", path.c_str(), lineno);
      return false;
    }
    std::string key(Trim(line.substr(0, eq)));
    std::string value(Trim(line.substr(eq + 1)));
    bool ok = true;
    if (key == "scenarios") {
      plan->scenarios =
          value == "all" ? AllScenarioNames() : SplitTrimmed(value, ',');
      ok = !plan->scenarios.empty();
    } else if (key == "queries") {
      plan->query_names = SplitTrimmed(value, ',');
      ok = !plan->query_names.empty();
    } else if (key == "sizes") {
      ok = ParseIntList(value, &plan->sizes);
    } else if (key == "seeds") {
      ok = ParseSeedList(value, &plan->seeds);
    } else if (key == "density") {
      ok = ParseProbability(value, &plan->density);
    } else if (key == "threads") {
      ok = ParsePositiveInt(value, &options->threads);
    } else if (key == "oracle_cutoff") {
      ok = ParsePositiveInt(value, &options->oracle_cutoff);
    } else if (key == "check_oracle") {
      ok = ParseBool(value, &options->check_oracle);
    } else if (key == "memoize") {
      ok = ParseBool(value, &options->memoize);
    } else if (key == "witness_limit") {
      uint64_t limit = 0;
      ok = ParseUint64(value, &limit);
      options->exact.witness_limit = static_cast<size_t>(limit);
    } else if (key == "exact_node_budget") {
      ok = ParseUint64(value, &options->exact.node_budget);
    } else if (key == "solver_threads") {
      ok = ParsePositiveInt(value, &options->exact.solver_threads);
    } else {
      *error = StrFormat("%s:%d: unknown plan key '%s'", path.c_str(), lineno,
                         key.c_str());
      return false;
    }
    if (!ok) {
      *error = StrFormat("%s:%d: bad value '%s' for key '%s'", path.c_str(),
                         lineno, value.c_str(), key.c_str());
      return false;
    }
  }
  return true;
}

BatchReport RunBatch(const std::vector<BatchJob>& jobs,
                     const BatchOptions& options) {
  BatchReport report;
  report.options = options;
  report.cells.resize(jobs.size());
  Memo memo;
  // One engine per run: each distinct query is planned once (minimize,
  // normalize, classify, probe the registry) and the immutable plan is
  // shared read-only by every worker thread. The run's budgets ride on
  // the engine so every exact solve honors them.
  EngineOptions engine_options;
  engine_options.exact = options.exact;
  ResilienceEngine engine(engine_options);

  auto start = Clock::now();
  ParallelFor(std::max(1, options.threads), jobs.size(), [&](size_t i) {
    report.cells[i] = RunCell(jobs[i], options, &engine, &memo);
  });
  report.elapsed_ms = MsSince(start);

  for (const BatchCell& cell : report.cells) {
    if (cell.budget_exceeded) {
      ++report.budget_exceeded;
    } else if (!cell.oracle_match || !cell.verified) {
      ++report.mismatches;
    }
    if (cell.memo_hit) ++report.memo_hits;
    report.total_wall_ms += cell.wall_ms;
  }
  PlanCacheStats plan_stats = engine.plan_cache_stats();
  report.plan_cache_hits = plan_stats.hits;
  report.plan_cache_misses = plan_stats.misses;
  report.plan_cache_entries = plan_stats.entries;
  return report;
}

std::string DatabaseFingerprint(const Database& db) {
  Fnv1a h;
  for (int rel = 0; rel < db.num_relations(); ++rel) {
    h.MixString(db.relation_name(rel));
    h.MixByte(static_cast<unsigned char>(db.relation_arity(rel)));
    for (TupleId id : db.ActiveTuples(rel)) {
      for (Value v : db.Row(id)) h.MixString(db.ValueName(v));
      h.MixByte(0xfe);  // row boundary
    }
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(h.digest()));
}

}  // namespace rescq
