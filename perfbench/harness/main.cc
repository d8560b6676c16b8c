// rescq_perfbench: runs one benchmark workload and prints its metrics.
//
//   rescq_perfbench --workload <ingest_bulk|route_churn|batch_solve>
//                   --seed <n> --seconds <s> --trace <0|1> --data-dir <dir>
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the
// per-layer metrics: it runs the workload once untraced (for the
// tracing overhead) and once traced, then briefly traces the other two
// workloads so that the layers this workload does not cross are still
// measured, each row naming the workload it came from. The last line of
// stdout is the JSON result.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  std::function<RunResult(const RunOptions&)> run;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"ingest_bulk", RunIngestBulk},
      {"route_churn", RunRouteChurn},
      {"batch_solve", RunBatchSolve},
  };
  return workloads;
}

const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> names = {
      "setup_s", "epoch_p50_ms", "epoch_p90_ms", "cpu_ms_per_op",
      "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = {
      "transport.stall_ms",           "transport.reads_per_burst",
      "protocol.update_us",           "protocol.epoch_overhead_ms",
      "protocol.read_us",             "router.hop_us",
      "router.hop_share",             "router.failures",
      "incremental.apply_p50_ms",     "incremental.apply_p90_ms",
      "incremental.begin_ms",         "incremental.delta_witnesses",
      "incremental.resolve_ratio",    "incremental.bytes_per_set",
      "engine.plan_ms",               "engine.plan_cache_hit_ratio",
      "engine.ptime_solve_ms",        "engine.exact_solve_ms",
      "engine.exact_share",           "witness.collect_ms",
      "witness.per_cell",             "exact.search_ms",
      "exact.nodes",                  "obs.count_ns_armed",
      "obs.count_ns_dark",            "pool.busy_ratio",
      "workload.generate_ms",         "trace.coverage_pct",
      "trace.overhead_pct"};
  return names;
}

// How long each other workload is traced to fill in the layers the
// chosen one does not cross.
constexpr double kProbeSeconds = 2.0;

void Usage() {
  std::fprintf(stderr,
               "usage: rescq_perfbench --workload <ingest_bulk|route_churn|"
               "batch_solve> --seed <n> --seconds <s> --trace <0|1> "
               "--data-dir <dir>\n");
}

void PrintNotes(const RunResult& r) {
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
}

/// Prints the JSON result line: exactly correct/attempted/failed/metrics.
void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double value = metrics[i].second.value;
    if (!std::isfinite(value)) value = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(), value,
                metrics[i].second.unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : Workloads()) {
    if (workload == w.name) chosen = &w;
  }
  if (chosen == nullptr || options.data_dir.empty() ||
      !(options.seconds > 0)) {
    Usage();
    return 2;
  }

  if (!options.trace) {
    RunResult r = chosen->run(options);
    PrintNotes(r);
    std::vector<std::pair<std::string, Metric>> metrics;
    for (const std::string& name : EndToEndNames()) {
      const Metric& m = r.metrics[name];
      std::printf("# %-16s %14.4f %s\n", name.c_str(), m.value,
                  m.unit.c_str());
      metrics.emplace_back(name, m);
    }
    for (const auto& [name, m] : r.metrics) {
      if (std::find(EndToEndNames().begin(), EndToEndNames().end(), name) ==
          EndToEndNames().end()) {
        std::printf("# %-16s %14.4f %s (not in BENCHMARK.json)\n",
                    name.c_str(), m.value, m.unit.c_str());
      }
    }
    std::printf("# failed %llu of %llu ops, %llu mismatches\n",
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.mismatches));
    PrintJson(r.checked && r.failed == 0, r.attempted, r.failed, metrics);
    return 0;
  }

  // Traced: the untraced baseline, the traced run, then short traced
  // runs of the other workloads for the layers this one does not cross.
  RunOptions base_options = options;
  base_options.trace = false;
  base_options.seconds = options.seconds / 2;
  RunResult base = chosen->run(base_options);
  RunResult traced = chosen->run(options);
  std::vector<std::pair<const char*, RunResult>> sources;
  sources.emplace_back(chosen->name, traced);
  for (const Workload& w : Workloads()) {
    if (&w == chosen) continue;
    RunOptions probe = options;
    probe.seconds = kProbeSeconds;
    sources.emplace_back(w.name, w.run(probe));
  }
  MeasureObsCount(&sources.front().second);
  // Tracing costs CPU on every request; its latency effect hides in the
  // noise (ingest_bulk's bursts wait on a delayed-ACK timer), so the
  // overhead is stated on CPU per op, with both latencies printed.
  double untraced_cpu = base.metrics["cpu_ms_per_op"].value;
  double traced_cpu = traced.metrics["cpu_ms_per_op"].value;
  sources.front().second.Set(
      "trace.overhead_pct",
      untraced_cpu > 0 ? 100.0 * (traced_cpu / untraced_cpu - 1.0) : 0, "%");

  bool correct = base.checked && base.failed == 0;
  uint64_t attempted = base.attempted, failed = base.failed;
  for (const auto& [name, r] : sources) {
    PrintNotes(r);
    correct = correct && r.checked && r.failed == 0;
    attempted += r.attempted;
    failed += r.failed;
  }
  std::printf("# untraced vs traced: cpu_ms_per_op %.4f vs %.4f, "
              "epoch_p50_ms %.4f vs %.4f\n",
              untraced_cpu, traced_cpu, base.metrics["epoch_p50_ms"].value,
              traced.metrics["epoch_p50_ms"].value);
  std::printf("# %-30s %14s %-6s %s\n", "layer metric", "value", "unit",
              "measured on");
  std::vector<std::pair<std::string, Metric>> metrics;
  for (const std::string& name : PerLayerNames()) {
    for (auto& [source, r] : sources) {
      auto it = r.metrics.find(name);
      if (it == r.metrics.end()) continue;
      std::printf("# %-30s %14.4f %-6s %s\n", name.c_str(), it->second.value,
                  it->second.unit.c_str(), source);
      metrics.emplace_back(name, it->second);
      break;
    }
  }
  PrintJson(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
