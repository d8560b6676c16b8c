// Tests for the workload subsystem: scenario generators (determinism,
// tuple-file round trips) and the parallel batch engine (oracle
// agreement, thread-count invariance, memoization, plan parsing).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cq/parser.h"
#include "db/tuple_io.h"
#include "resilience/solver.h"
#include "workload/batch.h"
#include "workload/churn.h"
#include "workload/generators.h"
#include "workload/report.h"
#include "workload/stream.h"

namespace rescq {
namespace {

BatchPlan SmallPlan() {
  BatchPlan plan;
  plan.scenarios = AllScenarioNames();
  plan.sizes = {3, 4};
  plan.seeds = {1, 2};
  plan.density = 0.5;
  return plan;
}

TEST(Generators, SameSeedSameInstance) {
  for (const Scenario& s : ScenarioCatalog()) {
    ScenarioParams params{6, 0.5, 42};
    Database a = s.generate(params);
    Database b = s.generate(params);
    EXPECT_EQ(DatabaseFingerprint(a), DatabaseFingerprint(b))
        << "scenario " << s.name;
    EXPECT_EQ(a.NumActiveTuples(), b.NumActiveTuples()) << s.name;
  }
}

TEST(Generators, SeedChangesRandomizedInstances) {
  // vc_path and vc_grid are intentionally seed-free; every other family
  // must actually consume its seed.
  for (const Scenario& s : ScenarioCatalog()) {
    if (s.name == "vc_path" || s.name == "vc_grid") continue;
    Database a = s.generate({8, 0.5, 1});
    Database b = s.generate({8, 0.5, 2});
    EXPECT_NE(DatabaseFingerprint(a), DatabaseFingerprint(b))
        << "scenario " << s.name;
  }
}

TEST(Generators, EveryInstanceRoundTripsThroughTupleIo) {
  for (const Scenario& s : ScenarioCatalog()) {
    for (uint64_t seed : {1u, 7u}) {
      Database original = s.generate({5, 0.6, seed});
      std::stringstream buffer;
      WriteTuples(original, buffer, "round trip of " + s.name);
      Database reloaded;
      std::string error;
      ASSERT_TRUE(ReadTuples(buffer, "<buffer>", &reloaded, &error))
          << s.name << ": " << error;
      EXPECT_EQ(DatabaseFingerprint(original), DatabaseFingerprint(reloaded))
          << "scenario " << s.name << " seed " << seed;
      EXPECT_EQ(original.NumActiveTuples(), reloaded.NumActiveTuples());
    }
  }
}

TEST(Generators, UniformFillerRespectsQueryShape) {
  Query q = MustParseQuery("R(x,y), A(x)");
  Database db = GenerateUniform(q, {10, 0.5, 3});
  int r = db.RelationId("R");
  int a = db.RelationId("A");
  ASSERT_GE(r, 0);
  ASSERT_GE(a, 0);
  EXPECT_EQ(db.relation_arity(r), 2);
  EXPECT_EQ(db.relation_arity(a), 1);
  EXPECT_GT(db.NumActiveTuples(), 0);
}

TEST(Batch, SmallSizesMatchReferenceForAllScenarios) {
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(SmallPlan(), &jobs, &error)) << error;
  BatchOptions options;
  options.threads = 2;
  options.check_oracle = true;
  options.oracle_cutoff = 1000;  // check every cell at these sizes
  BatchReport report = RunBatch(jobs, options);
  ASSERT_EQ(report.cells.size(), jobs.size());
  EXPECT_EQ(report.mismatches, 0);
  for (const BatchCell& cell : report.cells) {
    EXPECT_TRUE(cell.oracle_checked)
        << cell.scenario << " size " << cell.size << " seed " << cell.seed;
    EXPECT_TRUE(cell.oracle_match) << cell.scenario << " size " << cell.size;
    EXPECT_TRUE(cell.verified) << cell.scenario << " size " << cell.size;
    EXPECT_EQ(static_cast<int>(cell.contingency.size()),
              cell.unbreakable ? 0 : cell.resilience)
        << cell.scenario << " size " << cell.size;
  }
}

TEST(Batch, ThreadCountDoesNotChangeResults) {
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(SmallPlan(), &jobs, &error)) << error;
  BatchOptions one;
  one.threads = 1;
  BatchOptions four;
  four.threads = 4;
  BatchReport a = RunBatch(jobs, one);
  BatchReport b = RunBatch(jobs, four);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].query, b.cells[i].query);
    EXPECT_EQ(a.cells[i].fingerprint, b.cells[i].fingerprint) << i;
    EXPECT_EQ(a.cells[i].unbreakable, b.cells[i].unbreakable) << i;
    EXPECT_EQ(a.cells[i].resilience, b.cells[i].resilience)
        << a.cells[i].scenario << " size " << a.cells[i].size << " seed "
        << a.cells[i].seed;
    EXPECT_EQ(a.cells[i].solver, b.cells[i].solver) << i;
  }
}

TEST(Batch, CsvRowsStayInvariantAcrossCellAndSolverThreads) {
  // Post-pool-migration regression: RunBatch now fans cells out via the
  // shared WorkerPool machinery, and each cell's exact solve may itself
  // use solver workers. The deterministic CSV prefix (columns 1-15,
  // through oracle_resilience) must stay byte-identical for every
  // combination — only memo/plan-cache attribution and timings (the
  // trailing columns) may vary.
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(SmallPlan(), &jobs, &error)) << error;
  auto deterministic_prefix = [](const BatchReport& report) {
    std::ostringstream csv;
    WriteReportCsv(report, csv);
    std::string out;
    std::istringstream lines(csv.str());
    std::string line;
    while (std::getline(lines, line)) {
      size_t pos = 0;
      for (int commas = 0; commas < 15 && pos != std::string::npos; ++commas) {
        pos = line.find(',', pos == 0 && commas == 0 ? 0 : pos + 1);
      }
      out += line.substr(0, pos) + "\n";
    }
    return out;
  };
  BatchOptions baseline;  // threads = 1, solver_threads = 1
  std::string expected = deterministic_prefix(RunBatch(jobs, baseline));
  struct Combo {
    int threads;
    int solver_threads;
  };
  for (Combo combo : {Combo{4, 1}, Combo{1, 4}, Combo{4, 2}}) {
    BatchOptions options;
    options.threads = combo.threads;
    options.exact.solver_threads = combo.solver_threads;
    EXPECT_EQ(deterministic_prefix(RunBatch(jobs, options)), expected)
        << "threads " << combo.threads << " solver_threads "
        << combo.solver_threads;
  }
}

TEST(Batch, MemoizationReusesRepeatedCells) {
  // The same (scenario, size, seed) twice: the second cell must hit the
  // memo on one thread and still report the same resilience.
  BatchPlan plan;
  plan.scenarios = {"vc_er", "vc_er"};
  plan.sizes = {5};
  plan.seeds = {9};
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(plan, &jobs, &error)) << error;
  ASSERT_EQ(jobs.size(), 2u);
  BatchOptions options;  // threads = 1
  BatchReport report = RunBatch(jobs, options);
  EXPECT_EQ(report.memo_hits, 1);
  EXPECT_TRUE(report.cells[1].memo_hit);
  EXPECT_EQ(report.cells[0].resilience, report.cells[1].resilience);
  EXPECT_EQ(report.cells[0].contingency, report.cells[1].contingency);

  options.memoize = false;
  BatchReport uncached = RunBatch(jobs, options);
  EXPECT_EQ(uncached.memo_hits, 0);
  EXPECT_EQ(uncached.cells[1].resilience, report.cells[1].resilience);
}

TEST(Batch, ExpandPlanRejectsUnknownNames) {
  BatchPlan plan;
  plan.scenarios = {"no_such_scenario"};
  std::vector<BatchJob> jobs;
  std::string error;
  EXPECT_FALSE(ExpandPlan(plan, &jobs, &error));
  EXPECT_NE(error.find("no_such_scenario"), std::string::npos);

  plan.scenarios.clear();
  plan.query_names = {"q_does_not_exist"};
  EXPECT_FALSE(ExpandPlan(plan, &jobs, &error));
  EXPECT_NE(error.find("q_does_not_exist"), std::string::npos);
}

TEST(Batch, QueryNamesCrossUniformFiller) {
  BatchPlan plan;
  plan.query_names = {"q_perm"};
  plan.sizes = {4};
  plan.seeds = {1};
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(plan, &jobs, &error)) << error;
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].query_name, "q_perm");
  EXPECT_EQ(jobs[0].scenario, "uniform");
  BatchOptions options;
  options.check_oracle = true;
  options.oracle_cutoff = 1000;
  BatchReport report = RunBatch(jobs, options);
  EXPECT_EQ(report.mismatches, 0);
}

TEST(Batch, PlanFileParses) {
  std::string path = testing::TempDir() + "/rescq_plan.txt";
  {
    std::ofstream out(path);
    out << "# tiny sweep\n"
        << "scenarios = vc_path, chain\n"
        << "sizes = 3, 5\n"
        << "seeds = 1, 2, 3\n"
        << "density = 0.25\n"
        << "threads = 2\n"
        << "check_oracle = true\n"
        << "oracle_cutoff = 50\n"
        << "witness_limit = 5000\n"
        << "exact_node_budget = 250000\n";
  }
  BatchPlan plan;
  BatchOptions options;
  std::string error;
  ASSERT_TRUE(ParsePlanFile(path, &plan, &options, &error)) << error;
  EXPECT_EQ(plan.scenarios, (std::vector<std::string>{"vc_path", "chain"}));
  EXPECT_EQ(plan.sizes, (std::vector<int>{3, 5}));
  EXPECT_EQ(plan.seeds.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.density, 0.25);
  EXPECT_EQ(options.threads, 2);
  EXPECT_TRUE(options.check_oracle);
  EXPECT_EQ(options.oracle_cutoff, 50);
  EXPECT_EQ(options.exact.witness_limit, 5000u);
  EXPECT_EQ(options.exact.node_budget, 250000u);
  std::remove(path.c_str());
}

TEST(Batch, WitnessBudgetCellsAreStructuredNotMismatches) {
  // The chain scenario at size 6 has more than one witness; a budget of
  // one stops the exact solve. The cell must surface the error, count as
  // budget_exceeded, and NOT as a mismatch (it is not a solver bug).
  BatchPlan plan;
  plan.scenarios = {"chain"};
  plan.sizes = {6};
  plan.seeds = {1};
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(plan, &jobs, &error)) << error;
  BatchOptions options;
  options.exact.witness_limit = 1;
  options.check_oracle = true;
  BatchReport report = RunBatch(jobs, options);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_TRUE(report.cells[0].budget_exceeded);
  EXPECT_NE(report.cells[0].error.find("witness budget exceeded"),
            std::string::npos);
  EXPECT_EQ(report.budget_exceeded, 1);
  EXPECT_EQ(report.mismatches, 0);

  // The same sweep with a roomy budget solves and verifies normally.
  options.exact.witness_limit = 1000000;
  BatchReport roomy = RunBatch(jobs, options);
  EXPECT_EQ(roomy.budget_exceeded, 0);
  EXPECT_EQ(roomy.mismatches, 0);
  EXPECT_FALSE(roomy.cells[0].budget_exceeded);
}

TEST(Batch, NodeBudgetCellsKeepVerifiedUpperBound) {
  // With a one-node search budget the chain cell returns the greedy
  // incumbent: a verified contingency whose size is only an upper
  // bound. The cell is budget_exceeded, skips the oracle (which would
  // flag the gap as a false mismatch), and keeps its value.
  BatchPlan plan;
  plan.scenarios = {"chain"};
  plan.sizes = {6};
  plan.seeds = {1};
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(plan, &jobs, &error)) << error;
  BatchOptions options;
  options.exact.node_budget = 1;
  options.check_oracle = true;
  BatchReport report = RunBatch(jobs, options);
  ASSERT_EQ(report.cells.size(), 1u);
  const BatchCell& cell = report.cells[0];
  EXPECT_TRUE(cell.budget_exceeded);
  EXPECT_NE(cell.error.find("node budget"), std::string::npos);
  EXPECT_TRUE(cell.verified);
  EXPECT_FALSE(cell.oracle_checked);
  EXPECT_EQ(report.mismatches, 0);
  EXPECT_EQ(report.budget_exceeded, 1);
  // The unbudgeted optimum never exceeds the incumbent.
  BatchReport full = RunBatch(jobs, BatchOptions{});
  EXPECT_LE(full.cells[0].resilience, cell.resilience);
}

TEST(Batch, PlanFileRejectsUnknownKey) {
  std::string path = testing::TempDir() + "/rescq_bad_plan.txt";
  {
    std::ofstream out(path);
    out << "sizez = 3\n";
  }
  BatchPlan plan;
  BatchOptions options;
  std::string error;
  EXPECT_FALSE(ParsePlanFile(path, &plan, &options, &error));
  EXPECT_NE(error.find("sizez"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Report, CsvAndJsonCarryEveryCell) {
  BatchPlan plan;
  plan.scenarios = {"vc_path"};
  plan.sizes = {4};
  plan.seeds = {1};
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(plan, &jobs, &error)) << error;
  BatchReport report = RunBatch(jobs, BatchOptions{});

  std::stringstream csv;
  WriteReportCsv(report, csv);
  std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("query,scenario,size"), std::string::npos);
  EXPECT_NE(csv_text.find("vc_path"), std::string::npos);

  std::stringstream json;
  WriteReportJson(report, json);
  std::string json_text = json.str();
  EXPECT_NE(json_text.find("\"schema\": \"rescq-batch-report/v6\""),
            std::string::npos);
  EXPECT_NE(json_text.find("\"contingency\": [["), std::string::npos);
  EXPECT_NE(json_text.find("\"scenario\": \"vc_path\""), std::string::npos);
  EXPECT_NE(json_text.find("\"mismatches\": 0"), std::string::npos);
  EXPECT_NE(json_text.find("\"plan_cache\""), std::string::npos);
  EXPECT_NE(json_text.find("\"plan_cache_hit\""), std::string::npos);
  EXPECT_NE(json_text.find("\"budget_exceeded\": 0"), std::string::npos);
  EXPECT_NE(csv_text.find("budget_exceeded"), std::string::npos);
}

/// The `"options": {...}` line of a JSON report, verbatim.
std::string OptionsLine(const std::string& json) {
  size_t begin = json.find("  \"options\": {");
  if (begin == std::string::npos) return "";
  return json.substr(begin, json.find('\n', begin) - begin);
}

TEST(Report, OptionBlocksPrintTheBudgetsAsGiven) {
  BatchPlan plan;
  plan.scenarios = {"vc_path"};
  plan.sizes = {4};
  plan.seeds = {1};
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(plan, &jobs, &error)) << error;
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  Database base = GenerateErdosRenyiVC({8, 0.3, 5});
  ChurnParams churn;
  churn.epochs = 2;
  UpdateLog log = GenerateChurn(base, "mixed", churn);

  BatchOptions batch;
  batch.exact.witness_limit = 7;
  batch.exact.node_budget = 9;
  batch.exact.solver_threads = 2;
  std::ostringstream batch_json;
  WriteReportJson(RunBatch(jobs, batch), batch_json);
  EXPECT_EQ(OptionsLine(batch_json.str()),
            "  \"options\": {\"threads\": 1, \"check_oracle\": false, "
            "\"oracle_cutoff\": 80, \"memoize\": true, \"witness_limit\": 7, "
            "\"exact_node_budget\": 9, \"solver_threads\": 2},");
  StreamOptions stream;
  stream.exact.witness_limit = 7;
  stream.exact.node_budget = 9;
  stream.exact.solver_threads = 2;
  std::ostringstream stream_json;
  WriteStreamJson(RunStream(q, "q_vc", base, log, stream), stream_json);
  EXPECT_EQ(OptionsLine(stream_json.str()),
            "  \"options\": {\"check_oracle\": false, \"witness_limit\": 7, "
            "\"exact_node_budget\": 9, \"solver_threads\": 2},");

  // Defaults: unlimited budgets print as 0, one solver thread.
  batch_json.str("");
  WriteReportJson(RunBatch(jobs, BatchOptions{}), batch_json);
  EXPECT_EQ(OptionsLine(batch_json.str()),
            "  \"options\": {\"threads\": 1, \"check_oracle\": false, "
            "\"oracle_cutoff\": 80, \"memoize\": true, \"witness_limit\": 0, "
            "\"exact_node_budget\": 0, \"solver_threads\": 1},");
  stream_json.str("");
  WriteStreamJson(RunStream(q, "q_vc", base, log, StreamOptions{}),
                  stream_json);
  EXPECT_EQ(OptionsLine(stream_json.str()),
            "  \"options\": {\"check_oracle\": false, \"witness_limit\": 0, "
            "\"exact_node_budget\": 0, \"solver_threads\": 1},");
}

TEST(Fingerprint, SensitiveToContentNotJustSize) {
  Database a;
  a.AddTuple("R", {a.Intern("x"), a.Intern("y")});
  Database b;
  b.AddTuple("R", {b.Intern("x"), b.Intern("z")});
  EXPECT_NE(DatabaseFingerprint(a), DatabaseFingerprint(b));
  Database c;
  c.AddTuple("R", {c.Intern("x"), c.Intern("y")});
  EXPECT_EQ(DatabaseFingerprint(a), DatabaseFingerprint(c));
}

TEST(Fingerprint, DistinguishesArityWithSameValueStream) {
  // Same relation name and flattened value sequence, different shapes:
  // R/2 {(a,b),(c,d)} vs R/4 {(a,b,c,d)} must not collide.
  Database two;
  two.AddTuple("R", {two.Intern("a"), two.Intern("b")});
  two.AddTuple("R", {two.Intern("c"), two.Intern("d")});
  Database four;
  four.AddTuple("R", {four.Intern("a"), four.Intern("b"), four.Intern("c"),
                      four.Intern("d")});
  EXPECT_NE(DatabaseFingerprint(two), DatabaseFingerprint(four));
}

}  // namespace
}  // namespace rescq
