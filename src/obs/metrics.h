#ifndef RESCQ_OBS_METRICS_H_
#define RESCQ_OBS_METRICS_H_

// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms. Instrumented code calls the inline helpers
// (Count / SetGauge / ObserveLatencyMs), whose first instruction is one
// relaxed load of the global enabled flag — when no sink is installed
// (the default) every call inlines to that single test-and-return, so
// the hot paths pay nothing. When a sink is enabled (a --metrics-json
// flag, a report's metrics block, or a test), a call resolves its name
// to a registry slot through a per-thread cache keyed by the name's
// address, then does one relaxed atomic update on that slot: no lock,
// no allocation, no string compare. The registry mutex is taken only
// the first time a thread meets a name. Snapshots serialize to the
// stable `rescq-metrics/v1` JSON schema with keys in sorted order, so
// snapshots diff cleanly run over run.
//
// Names passed to the helpers must be string literals (or otherwise
// live, unchanged, at the same address for the whole process), as for
// obs::Span: the cache remembers the pointer. A name built at run time
// goes through a CounterHandle that its owner keeps instead.
//
// Metric names are dot-separated lowercase paths ("exact.nodes",
// "mem.bytes_per_tuple"); docs/OBSERVABILITY.md is the catalog.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rescq::obs {

/// Monotone event count. Updates are relaxed atomic adds.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (bytes, ratios, pool sizes).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]
/// (the first bound that fits claims the observation); larger values
/// land in the overflow bucket. Bounds are fixed at registration so
/// snapshots from different runs are bucket-compatible.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t BucketCount(size_t i) const;
  uint64_t OverflowCount() const {
    return overflow_.load(std::memory_order_relaxed);
  }
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> overflow_{0};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Owns every metric; registration is mutex-protected and returns a
/// stable reference (map nodes never move), so updates after lookup are
/// lock-free. Standalone registries serve the tests; instrumented code
/// uses the process-wide GlobalRegistry().
class Registry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `upper_bounds` applies on first registration only; later calls with
  /// the same name return the existing histogram unchanged.
  Histogram& GetHistogram(const std::string& name,
                          const std::vector<double>& upper_bounds);

  /// Read-only lookups; nullptr when the name was never registered.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Zeroes every value; registrations (and histogram bounds) survive.
  void Reset();

  /// The snapshot object body ("counters"/"gauges"/"histograms" fields,
  /// no surrounding braces) indented by `indent` spaces — shared by the
  /// standalone document and the report embeddings.
  void AppendSnapshotFields(std::string* out, int indent) const;

  /// Full `rescq-metrics/v1` document.
  std::string SnapshotJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

Registry& GlobalRegistry();

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

/// True when some sink (CLI flag, report writer, test) asked for
/// metrics. Instrumentation helpers no-op when false.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled);

/// Default latency buckets (milliseconds) shared by every *_ms
/// histogram so traces from different stages line up.
const std::vector<double>& DefaultLatencyBucketsMs();

namespace internal {

// A per-thread table from a name's address to its global-registry slot,
// one per metric kind. The name's home entry is probed inline; a miss
// (first sight on this thread, or a collision) probes on out of line
// and registers the name under the registry mutex. Zero-initialized
// plain data, so the thread_local instances need no constructor and no
// TLS guard. Slots never move and registrations are never dropped
// (Registry::Reset only zeroes values), so a cached pointer stays valid
// for the life of the process.
template <typename T>
struct SlotCache {
  static constexpr size_t kSlots = 256;
  struct Entry {
    const char* name;
    T* slot;
  };
  Entry entries[kSlots];

  // Fibonacci hashing: the top 8 bits of address * 2^64/phi.
  static size_t Home(const char* name) {
    return static_cast<size_t>(
        (static_cast<uint64_t>(reinterpret_cast<uintptr_t>(name)) *
         0x9E3779B97F4A7C15ull) >> 56);
  }
  T& Find(const char* name) {
    const Entry& home = entries[Home(name)];
    return home.name == name ? *home.slot : FindSlow(name);
  }
  T& FindSlow(const char* name);
};

extern thread_local SlotCache<Counter> t_counters;
extern thread_local SlotCache<Gauge> t_gauges;
extern thread_local SlotCache<Histogram> t_histograms;

}  // namespace internal

/// Instrumentation helpers against the global registry. One relaxed
/// bool load when disabled; an inline cache probe plus one relaxed
/// atomic update when armed. `name` must be a string literal.
inline void Count(const char* name, uint64_t n = 1) {
  if (!MetricsEnabled()) return;
  internal::t_counters.Find(name).Add(n);
}

inline void SetGauge(const char* name, double value) {
  if (!MetricsEnabled()) return;
  internal::t_gauges.Find(name).Set(value);
}

inline void ObserveLatencyMs(const char* name, double ms) {
  if (!MetricsEnabled()) return;
  internal::t_histograms.Find(name).Observe(ms);
}

/// A global-registry counter whose name is built at run time
/// ("shard.forwarded.3", a configured connections metric). Count()
/// cannot take such a name: its cache is keyed by address, and a
/// temporary's buffer is reused by the next name. The owner keeps one
/// handle per name; the handle registers on its first armed Add (so an
/// unused name never shows in a snapshot, as with Count) and then
/// updates its slot directly. Safe to Add from any thread.
class CounterHandle {
 public:
  explicit CounterHandle(std::string name) : name_(std::move(name)) {}
  CounterHandle(const CounterHandle&) = delete;
  CounterHandle& operator=(const CounterHandle&) = delete;

  void Add(uint64_t n = 1) {
    if (!MetricsEnabled()) return;
    Counter* c = counter_.load(std::memory_order_acquire);
    if (c == nullptr) c = Resolve();
    c->Add(n);
  }

 private:
  Counter* Resolve();

  const std::string name_;
  std::atomic<Counter*> counter_{nullptr};
};

/// Writes the registry's `rescq-metrics/v1` snapshot; false on I/O
/// failure.
bool WriteMetricsJson(const Registry& registry, const std::string& path);

}  // namespace rescq::obs

#endif  // RESCQ_OBS_METRICS_H_
