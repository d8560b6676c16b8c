// batch_solve: a `rescq batch`-style sweep — one shared engine per
// sweep and 2 workers — over the whole scenario catalog at sizes where
// both the PTIME constructions and the exact branch-and-bound run. No
// network: the plan cache, witness enumeration, the exact solver and the
// flow constructions do all the work.
//
// A cell on the exact path (SolverKind exact / exact-fallback) — the
// search an epoch's re-solve runs in the serving workloads — is reported
// as epoch_p50/p90_ms; a cell on a PTIME construction as request_p50_ms.

#include <memory>

#include "bench.h"
#include "cq/parser.h"
#include "obs/metrics.h"
#include "resilience/engine.h"
#include "resilience/solver.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "workload/batch.h"

namespace perfbench {

namespace {

constexpr int kWorkers = 2;
constexpr int kSeedsPerCell = 16;
constexpr int kOracleCutoff = 80;  // tuples; the batch default
// Triad (Theorem 24) is capped where its search stays short: at size 8
// one instance in a hundred takes over 100 ms, and a sweep's time would
// follow whichever such instance the seed drew.
const std::vector<int> kSizes = {8, 16, 24, 32};
const std::vector<int> kTriadSizes = {5, 6};

bool ExactPath(rescq::SolverKind kind) {
  return kind == rescq::SolverKind::kExact ||
         kind == rescq::SolverKind::kExactFallback;
}

struct Instance {
  rescq::BatchJob job;
  rescq::Query query;
  std::shared_ptr<const rescq::Database> db;
};

/// The sweep's jobs with their databases generated up front; the jobs'
/// generators hand out copies, so a sweep times solving, not generation.
bool BuildInstances(uint64_t seed, std::vector<Instance>* out,
                    std::string* error) {
  std::vector<rescq::BatchJob> jobs, triad;
  rescq::BatchPlan plan;
  for (int i = 0; i < kSeedsPerCell; ++i) {
    plan.seeds.push_back(seed * 100 + static_cast<uint64_t>(i) + 1);
  }
  plan.sizes = kSizes;
  for (const std::string& name : rescq::AllScenarioNames()) {
    if (name != "triad") plan.scenarios.push_back(name);
  }
  if (!rescq::ExpandPlan(plan, &jobs, error)) return false;
  plan.scenarios = {"triad"};
  plan.sizes = kTriadSizes;
  if (!rescq::ExpandPlan(plan, &triad, error)) return false;
  jobs.insert(jobs.end(), triad.begin(), triad.end());

  out->clear();
  for (rescq::BatchJob& job : jobs) {
    Instance instance;
    instance.query = rescq::MustParseQuery(job.query_text);
    auto db = std::make_shared<const rescq::Database>(job.generate(job.params));
    job.generate = [db](const rescq::ScenarioParams&) { return *db; };
    instance.db = std::move(db);
    instance.job = std::move(job);
    out->push_back(std::move(instance));
  }
  return true;
}

/// What one solved cell produced, for the correctness checks.
struct CellAnswer {
  bool unbreakable = false;
  int resilience = 0;
  bool verified = false;
  bool exact_path = false;
};

bool SameAnswer(const CellAnswer& a, const CellAnswer& b) {
  return a.unbreakable == b.unbreakable &&
         (a.unbreakable || a.resilience == b.resilience);
}

}  // namespace

RunResult RunBatchSolve(const RunOptions& options) {
  RunResult result;
  rescq::obs::SetMetricsEnabled(true);

  std::vector<Instance> instances;
  std::string error;
  bool built = false;
  double setup_s = MedianSetup(
      options.trace ? 1 : kSetupRepeats,
      [&] { built = BuildInstances(options.seed, &instances, &error); },
      [] {});
  if (!built) {
    result.Fail("plan: " + error);
    return result;
  }
  std::vector<rescq::BatchJob> jobs;
  for (const Instance& instance : instances) jobs.push_back(instance.job);
  const size_t n = instances.size();

  rescq::BatchOptions batch;
  batch.threads = kWorkers;
  batch.memoize = false;  // every sweep solves every cell

  // Warm-up sweeps; the first one's answers are the reference every
  // later sweep must reproduce.
  std::vector<CellAnswer> expected(n);
  {
    rescq::BatchReport warm = rescq::RunBatch(jobs, batch);
    for (size_t i = 0; i < n; ++i) {
      const rescq::BatchCell& cell = warm.cells[i];
      expected[i] = {cell.unbreakable, cell.resilience, cell.verified,
                     ExactPath(cell.solver)};
    }
    Clock::time_point warm_end =
        Clock::now() + std::chrono::microseconds(
                           static_cast<int64_t>(kWarmupSeconds * 1e6));
    while (Clock::now() < warm_end) rescq::RunBatch(jobs, batch);
  }

  auto check = [&](size_t i, const CellAnswer& got) {
    if (!got.verified) {
      result.Fail(instances[i].job.query_name + " size " +
                  std::to_string(instances[i].job.params.size) +
                  ": contingency set not verified");
    } else if (!SameAnswer(got, expected[i])) {
      ++result.mismatches;
      result.Fail(instances[i].job.query_name +
                  ": answer changed between sweeps");
    }
  };

  std::vector<double> exact_ms, ptime_ms;
  double cpu_start = ProcessCpuSeconds();
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::microseconds(
                  static_cast<int64_t>(options.seconds * 1e6));

  // Traced sweeps call the engine directly on a WorkerPool, timing each
  // layer from outside; untraced sweeps are RunBatch itself.
  std::vector<double> exact_solve_ms, ptime_solve_ms, collect, search, nodes,
      witnesses;
  double plan_hits = 0, plan_lookups = 0, plan_total = 0, exact_total = 0,
         solve_total = 0, traced_cell_total = 0, attributed = 0;
  std::unique_ptr<rescq::WorkerPool> pool;
  if (options.trace) pool = std::make_unique<rescq::WorkerPool>(kWorkers);
  int sweeps = 0;
  while (Clock::now() < deadline) {
    if (!options.trace) {
      rescq::BatchReport report = rescq::RunBatch(jobs, batch);
      for (size_t i = 0; i < n; ++i) {
        const rescq::BatchCell& cell = report.cells[i];
        (ExactPath(cell.solver) ? exact_ms : ptime_ms).push_back(cell.wall_ms);
        check(i, {cell.unbreakable, cell.resilience, cell.verified,
                  ExactPath(cell.solver)});
      }
      ++sweeps;
      continue;
    }
    struct TracedCell {
      double plan_ms = 0, solve_ms = 0;
      CellAnswer answer;
      ExactPathTiming exact;
    };
    std::vector<TracedCell> traced(n);
    rescq::ResilienceEngine engine;  // fresh per sweep, as RunBatch
    const bool first = sweeps == 0;
    pool->Run(n, [&](size_t i) {
      rescq::Database db = *instances[i].db;
      TracedCell& t = traced[i];
      Clock::time_point t0 = Clock::now();
      std::shared_ptr<const rescq::ResiliencePlan> plan =
          engine.Plan(instances[i].query);
      Clock::time_point t1 = Clock::now();
      rescq::SolveOutcome out = engine.Solve(plan, db);
      Clock::time_point t2 = Clock::now();
      t.plan_ms = MsBetween(t0, t1);
      t.solve_ms = MsBetween(t1, t2);
      const rescq::ResilienceResult& r = out.result;
      t.answer = {r.unbreakable, r.resilience,
                  r.unbreakable ||
                      rescq::VerifyContingency(instances[i].query, db,
                                               r.contingency),
                  ExactPath(r.solver)};
      // The exact path's stages, timed apart once per cell.
      if (first && t.answer.exact_path) {
        t.exact = TimeExactPath(instances[i].query, db);
      }
    });
    rescq::PlanCacheStats plan_stats = engine.plan_cache_stats();
    plan_hits += static_cast<double>(plan_stats.hits);
    plan_lookups += static_cast<double>(plan_stats.hits + plan_stats.misses);
    for (size_t i = 0; i < n; ++i) {
      const TracedCell& t = traced[i];
      double cell_ms = t.plan_ms + t.solve_ms;
      check(i, t.answer);
      (t.answer.exact_path ? exact_ms : ptime_ms).push_back(cell_ms);
      (t.answer.exact_path ? exact_solve_ms : ptime_solve_ms)
          .push_back(t.solve_ms);
      plan_total += t.plan_ms;
      solve_total += t.solve_ms;
      if (t.answer.exact_path) exact_total += t.solve_ms;
      if (first) {
        // Directly timed parts of a cell: the plan lookup, then either
        // the PTIME solve or the exact path's stages — the holds check,
        // witness collection and hitting-set search, re-run apart on the
        // same instance.
        traced_cell_total += cell_ms;
        if (t.answer.exact_path) {
          collect.push_back(t.exact.collect_ms);
          search.push_back(t.exact.search_ms);
          nodes.push_back(static_cast<double>(t.exact.nodes));
          witnesses.push_back(static_cast<double>(t.exact.witnesses));
          attributed += t.plan_ms + t.exact.holds_ms + t.exact.collect_ms +
                        t.exact.search_ms;
        } else {
          attributed += t.plan_ms + t.solve_ms;
        }
      }
    }
    ++sweeps;
  }
  double elapsed_s = MsBetween(start, Clock::now()) / 1000.0;
  double cpu_s = ProcessCpuSeconds() - cpu_start;

  double ops = static_cast<double>(exact_ms.size() + ptime_ms.size());
  result.attempted += exact_ms.size() + ptime_ms.size();
  result.Set("setup_s", setup_s, "s");
  result.Set("ops_per_s", ops / elapsed_s, "1/s");
  result.Set("epoch_p50_ms", Percentile(exact_ms, 0.5), "ms");
  result.Set("epoch_p90_ms", Percentile(exact_ms, 0.9), "ms");
  result.Set("request_p50_ms", Percentile(ptime_ms, 0.5), "ms");
  result.Set("cpu_ms_per_op", ops > 0 ? cpu_s * 1000.0 / ops : 0, "ms");
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  size_t exact_cells = 0;
  for (const CellAnswer& a : expected) exact_cells += a.exact_path ? 1 : 0;
  result.Note(rescq::StrFormat(
      "batch_solve: %d sweeps of %zu cells (%zu exact-path) on %d workers in "
      "%.2f s",
      sweeps, n, exact_cells, kWorkers, elapsed_s));

  // The oracle, outside the timed loop: below the cutoff every cell's
  // answer must equal the reference exact solve.
  size_t oracle_checks = 0;
  for (size_t i = 0; i < n; ++i) {
    if (instances[i].db->NumActiveTuples() > kOracleCutoff) continue;
    rescq::ResilienceResult oracle = rescq::ComputeResilienceReference(
        instances[i].query, *instances[i].db);
    ++oracle_checks;
    if (!SameAnswer({oracle.unbreakable, oracle.resilience, true, true},
                    expected[i])) {
      ++result.mismatches;
      result.Fail(instances[i].job.query_name + " size " +
                  std::to_string(instances[i].job.params.size) +
                  ": oracle disagrees");
    }
    if (!expected[i].verified) result.Fail("warm-up contingency not verified");
  }
  result.Note(
      rescq::StrFormat("batch_solve: %zu oracle checks", oracle_checks));
  result.checked = true;
  if (!options.trace) return result;

  std::vector<rescq::WorkerPool::WorkerStats> stats = pool->Stats();
  double idle_ns = 0;
  for (const auto& w : stats) idle_ns += static_cast<double>(w.idle_ns);
  double capacity_ns = elapsed_s * 1e9 * static_cast<double>(stats.size());
  result.Set("engine.plan_ms", ops > 0 ? plan_total / ops : 0, "ms");
  result.Set("engine.plan_cache_hit_ratio",
             plan_lookups > 0 ? plan_hits / plan_lookups : 0, "ratio");
  result.Set("engine.ptime_solve_ms", Median(ptime_solve_ms), "ms");
  result.Set("engine.exact_solve_ms", Median(exact_solve_ms), "ms");
  result.Set("engine.exact_share",
             solve_total > 0 ? exact_total / solve_total : 0, "ratio");
  result.Set("witness.collect_ms", Median(collect), "ms");
  result.Set("witness.per_cell", Median(witnesses), "count");
  result.Set("exact.search_ms", Median(search), "ms");
  result.Set("exact.nodes", Median(nodes), "count");
  result.Set("pool.busy_ratio",
             capacity_ns > 0 ? 1.0 - idle_ns / capacity_ns : 0, "ratio");
  result.Set("trace.coverage_pct",
             traced_cell_total > 0 ? 100.0 * attributed / traced_cell_total
                                   : 0,
             "%");
  result.Set("workload.generate_ms", setup_s * 1000.0, "ms");
  return result;
}

}  // namespace perfbench
