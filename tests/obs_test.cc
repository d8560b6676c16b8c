// The observability layer: metrics registry semantics (counters,
// gauges, histogram bucket edges, snapshot schema), concurrent counter
// updates from WorkerPool workers (the `parallel` CTest label puts this
// file under TSan in CI), trace JSON well-formedness across threads,
// and memstats monotonicity while an incremental session absorbs
// inserts. Tests that touch the process-global registry / trace buffer
// restore the disabled state before returning so the rest of the suite
// keeps its zero-cost default.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cq/parser.h"
#include "db/database.h"
#include "db/delta.h"
#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/incremental.h"
#include "util/parallel.h"

namespace rescq {
namespace {

// --- Registry ---------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndLookup) {
  obs::Registry registry;
  registry.GetCounter("a.hits").Add(3);
  registry.GetCounter("a.hits").Increment();
  registry.GetGauge("a.bytes").Set(128.5);

  const obs::Counter* hits = registry.FindCounter("a.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->Value(), 4u);
  const obs::Gauge* bytes = registry.FindGauge("a.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_DOUBLE_EQ(bytes->Value(), 128.5);

  EXPECT_EQ(registry.FindCounter("never.registered"), nullptr);
  EXPECT_EQ(registry.FindGauge("a.hits"), nullptr);  // wrong kind

  registry.Reset();
  EXPECT_EQ(hits->Value(), 0u);  // registration survives, value zeroed
  EXPECT_DOUBLE_EQ(bytes->Value(), 0.0);
}

TEST(MetricsRegistry, RegistrationReturnsStableReferences) {
  obs::Registry registry;
  obs::Counter& first = registry.GetCounter("x");
  // Registering many more names must not move the first slot.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler." + std::to_string(i));
  }
  obs::Counter& again = registry.GetCounter("x");
  EXPECT_EQ(&first, &again);
}

TEST(MetricsRegistry, SnapshotJsonIsStableAndSchemaTagged) {
  obs::Registry registry;
  registry.GetCounter("b.count").Add(7);
  registry.GetCounter("a.count").Add(2);
  registry.GetGauge("m.ratio").Set(0.25);
  registry.GetHistogram("lat_ms", {1.0, 10.0}).Observe(0.5);

  std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"schema\": \"rescq-metrics/v1\""), std::string::npos);
  // Sorted keys: a.count before b.count.
  EXPECT_LT(json.find("\"a.count\": 2"), json.find("\"b.count\": 7"));
  EXPECT_NE(json.find("\"m.ratio\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"lat_ms\""), std::string::npos);
  // Two identical registries snapshot to identical text.
  obs::Registry twin;
  twin.GetCounter("b.count").Add(7);
  twin.GetCounter("a.count").Add(2);
  twin.GetGauge("m.ratio").Set(0.25);
  twin.GetHistogram("lat_ms", {1.0, 10.0}).Observe(0.5);
  EXPECT_EQ(json, twin.SnapshotJson());
}

// --- Histogram bucket edges -------------------------------------------------

TEST(MetricsHistogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram h({1.0, 5.0, 25.0});
  h.Observe(1.0);   // exactly the first bound -> bucket 0
  h.Observe(0.1);   // below the first bound  -> bucket 0
  h.Observe(1.001); // just above            -> bucket 1
  h.Observe(5.0);   // exactly the second    -> bucket 1
  h.Observe(25.0);  // exactly the last      -> bucket 2
  h.Observe(25.1);  // above every bound     -> overflow
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.OverflowCount(), 1u);
  EXPECT_EQ(h.Count(), 6u);
  EXPECT_DOUBLE_EQ(h.Sum(), 1.0 + 0.1 + 1.001 + 5.0 + 25.0 + 25.1);
  EXPECT_EQ(h.BucketCount(99), 0u);  // out of range reads as zero

  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.OverflowCount(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.bounds().size(), 3u);  // bounds survive a reset
}

// --- Concurrent updates (raced under TSan via the parallel label) -----------

TEST(MetricsConcurrency, WorkerPoolHammerKeepsExactCounts) {
  obs::SetMetricsEnabled(true);
  obs::GlobalRegistry().Reset();
  constexpr int kTasks = 2000;
  WorkerPool pool(4);
  pool.Run(kTasks, [&](size_t i) {
    obs::Count("obs_test.hammer");
    obs::Count("obs_test.weighted", 3);
    obs::ObserveLatencyMs("obs_test.lat_ms", static_cast<double>(i % 7));
    obs::SetGauge("obs_test.gauge", static_cast<double>(i));
  });
  obs::SetMetricsEnabled(false);

  const obs::Counter* hammer =
      obs::GlobalRegistry().FindCounter("obs_test.hammer");
  ASSERT_NE(hammer, nullptr);
  EXPECT_EQ(hammer->Value(), static_cast<uint64_t>(kTasks));
  const obs::Counter* weighted =
      obs::GlobalRegistry().FindCounter("obs_test.weighted");
  ASSERT_NE(weighted, nullptr);
  EXPECT_EQ(weighted->Value(), static_cast<uint64_t>(kTasks) * 3);
  const obs::Histogram* lat =
      obs::GlobalRegistry().FindHistogram("obs_test.lat_ms");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->Count(), static_cast<uint64_t>(kTasks));
  uint64_t bucketed = lat->OverflowCount();
  for (size_t b = 0; b < lat->bounds().size(); ++b) {
    bucketed += lat->BucketCount(b);
  }
  EXPECT_EQ(bucketed, static_cast<uint64_t>(kTasks));
  obs::GlobalRegistry().Reset();
}

TEST(MetricsConcurrency, DisabledHelpersTouchNothing) {
  ASSERT_FALSE(obs::MetricsEnabled());
  obs::Count("obs_test.never");
  obs::SetGauge("obs_test.never_gauge", 1.0);
  obs::ObserveLatencyMs("obs_test.never_ms", 1.0);
  EXPECT_EQ(obs::GlobalRegistry().FindCounter("obs_test.never"), nullptr);
  EXPECT_EQ(obs::GlobalRegistry().FindGauge("obs_test.never_gauge"), nullptr);
  EXPECT_EQ(obs::GlobalRegistry().FindHistogram("obs_test.never_ms"), nullptr);
}

// --- Per-thread slot caches and handles -------------------------------------

// A global counter's value; a name that was never registered fails.
uint64_t GlobalCount(const std::string& name) {
  const obs::Counter* c = obs::GlobalRegistry().FindCounter(name);
  EXPECT_NE(c, nullptr) << name;
  return c == nullptr ? 0 : c->Value();
}

TEST(MetricsCache, ArmedCountsFromFreshThreadsSumExactly) {
  // Every round starts new threads, so every Count below first misses
  // its thread's cache and registers concurrently with the others.
  obs::SetMetricsEnabled(true);
  obs::GlobalRegistry().Reset();
  constexpr int kRounds = 4, kThreads = 8, kCalls = 500;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < kCalls; ++i) {
          obs::Count("obs_test.cold");
          obs::Count("obs_test.cold_weighted", 2);
          obs::ObserveLatencyMs("obs_test.cold_ms", 0.1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  obs::SetMetricsEnabled(false);
  const uint64_t calls = uint64_t{kRounds} * kThreads * kCalls;
  EXPECT_EQ(GlobalCount("obs_test.cold"), calls);
  EXPECT_EQ(GlobalCount("obs_test.cold_weighted"), 2 * calls);
  const obs::Histogram* lat =
      obs::GlobalRegistry().FindHistogram("obs_test.cold_ms");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->Count(), calls);
  obs::GlobalRegistry().Reset();
}

TEST(MetricsCache, EqualNamesAtDifferentAddressesShareOneCounter) {
  static const char kFirst[] = "obs_test.twin";
  static const char kSecond[] = "obs_test.twin";
  ASSERT_NE(static_cast<const void*>(kFirst),
            static_cast<const void*>(kSecond));
  obs::SetMetricsEnabled(true);
  obs::GlobalRegistry().Reset();
  obs::Count(kFirst, 2);
  obs::Count(kSecond, 3);
  obs::Count(kFirst);
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(GlobalCount("obs_test.twin"), 6u);
  obs::GlobalRegistry().Reset();
}

TEST(MetricsCache, CachedSlotsKeepUpdatingAfterReset) {
  obs::SetMetricsEnabled(true);
  obs::GlobalRegistry().Reset();
  obs::CounterHandle handle("obs_test.handle." + std::to_string(7));
  obs::Count("obs_test.reset");
  obs::SetGauge("obs_test.reset_gauge", 4.0);
  obs::ObserveLatencyMs("obs_test.reset_ms", 1.0);
  handle.Add(5);
  obs::GlobalRegistry().Reset();  // zeroes values; cached slots stay valid
  obs::Count("obs_test.reset");
  obs::SetGauge("obs_test.reset_gauge", 2.5);
  obs::ObserveLatencyMs("obs_test.reset_ms", 1.0);
  handle.Add();
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(GlobalCount("obs_test.reset"), 1u);
  EXPECT_EQ(GlobalCount("obs_test.handle.7"), 1u);
  const obs::Gauge* gauge =
      obs::GlobalRegistry().FindGauge("obs_test.reset_gauge");
  const obs::Histogram* lat =
      obs::GlobalRegistry().FindHistogram("obs_test.reset_ms");
  ASSERT_NE(gauge, nullptr);
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(gauge->Value(), 2.5);
  EXPECT_EQ(lat->Count(), 1u);
  obs::GlobalRegistry().Reset();
}

TEST(MetricsCache, HandleRegistersOnlyOnItsFirstArmedAdd) {
  ASSERT_FALSE(obs::MetricsEnabled());
  obs::CounterHandle handle(std::string("obs_test.") + "lazy");
  handle.Add();
  EXPECT_EQ(obs::GlobalRegistry().FindCounter("obs_test.lazy"), nullptr);
  obs::SetMetricsEnabled(true);
  WorkerPool pool(4);
  pool.Run(1000, [&](size_t) { handle.Add(); });
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(GlobalCount("obs_test.lazy"), 1000u);
  obs::GlobalRegistry().Reset();
}

// --- Trace ------------------------------------------------------------------

// Crude but dependency-free well-formedness probe: balanced braces /
// brackets outside of (escaped) strings.
void ExpectBalancedJson(const std::string& json) {
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(Trace, SpansFromWorkersProduceWellFormedChromeJson) {
  obs::StartTrace();
  {
    obs::Span outer("outer", "test");
    WorkerPool pool(4);
    pool.Run(16, [&](size_t) { obs::Span inner("inner", "test"); });
  }
  obs::StopTrace();
  EXPECT_EQ(obs::TraceEventCount(), 17u);  // 16 inner + 1 outer

  std::string json = obs::TraceJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // StartTrace clears the previous run's buffer.
  obs::StartTrace();
  obs::StopTrace();
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  ExpectBalancedJson(obs::TraceJson());
}

TEST(Trace, DisabledSpansRecordNothing) {
  ASSERT_FALSE(obs::TraceEnabled());
  size_t before = obs::TraceEventCount();
  { obs::Span span("ghost", "test"); }
  EXPECT_EQ(obs::TraceEventCount(), before);
}

// --- Memstats ---------------------------------------------------------------

TEST(MemStats, ContainerGeometryHelpers) {
  std::vector<int> v;
  v.reserve(10);
  EXPECT_EQ(obs::VectorBytes(v), 10u * sizeof(int));
  std::vector<std::vector<int>> nested(2);
  nested[0].reserve(4);
  EXPECT_GE(obs::NestedVectorBytes(nested), 4u * sizeof(int));

  obs::MemBreakdown mem;
  EXPECT_DOUBLE_EQ(mem.BytesPerTuple(), 0.0);    // no division by zero
  EXPECT_DOUBLE_EQ(mem.BytesPerWitness(), 0.0);
  mem.index_bytes = 600;
  mem.family_bytes = 300;
  mem.component_bytes = 100;
  mem.tuples = 10;
  mem.witness_sets = 4;
  EXPECT_EQ(mem.TotalBytes(), 1000u);
  EXPECT_DOUBLE_EQ(mem.BytesPerTuple(), 100.0);
  EXPECT_DOUBLE_EQ(mem.BytesPerWitness(), 250.0);
}

TEST(MemStats, SessionFootprintGrowsMonotonicallyUnderInserts) {
  Query q = MustParseQuery("R(x,y), R(y,z)");
  Database base;
  base.AddTuple("R", {base.Intern("a0"), base.Intern("a1")});

  IncrementalSession session(q, std::move(base), ExactOptions{});
  obs::MemBreakdown prev = session.ApproxMemory();
  EXPECT_GT(prev.TotalBytes(), 0u);
  EXPECT_EQ(prev.tuples, 1u);

  // Insert-only epochs growing a chain: capacities and hash tables only
  // grow, so every breakdown dominates the previous one in total bytes
  // and covered tuples, and witnesses eventually appear.
  for (int i = 1; i <= 12; ++i) {
    Epoch e;
    Update u;
    u.kind = UpdateKind::kInsert;
    u.relation = "R";
    u.constants = {"a" + std::to_string(i), "a" + std::to_string(i + 1)};
    e.updates.push_back(u);
    session.Apply(e);

    obs::MemBreakdown mem = session.ApproxMemory();
    EXPECT_GE(mem.TotalBytes(), prev.TotalBytes()) << "epoch " << i;
    EXPECT_EQ(mem.tuples, static_cast<uint64_t>(i + 1)) << "epoch " << i;
    EXPECT_GE(mem.witness_sets, prev.witness_sets) << "epoch " << i;
    prev = mem;
  }
  EXPECT_GT(prev.witness_sets, 0u);
  EXPECT_GT(prev.BytesPerTuple(), 0.0);
  EXPECT_GT(prev.BytesPerWitness(), 0.0);
}

TEST(MemStats, PublishMemBreakdownSetsGauges) {
  obs::SetMetricsEnabled(true);
  obs::GlobalRegistry().Reset();
  obs::MemBreakdown mem;
  mem.index_bytes = 600;
  mem.family_bytes = 300;
  mem.component_bytes = 100;
  mem.tuples = 10;
  mem.witness_sets = 4;
  obs::PublishMemBreakdown(mem);
  obs::SetMetricsEnabled(false);

  const obs::Gauge* total = obs::GlobalRegistry().FindGauge("mem.total_bytes");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->Value(), 1000.0);
  const obs::Gauge* per_tuple =
      obs::GlobalRegistry().FindGauge("mem.bytes_per_tuple");
  ASSERT_NE(per_tuple, nullptr);
  EXPECT_DOUBLE_EQ(per_tuple->Value(), 100.0);
  const obs::Gauge* per_witness =
      obs::GlobalRegistry().FindGauge("mem.bytes_per_witness");
  ASSERT_NE(per_witness, nullptr);
  EXPECT_DOUBLE_EQ(per_witness->Value(), 250.0);
  obs::GlobalRegistry().Reset();
}

}  // namespace
}  // namespace rescq
