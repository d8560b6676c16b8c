#include "obs/metrics.h"

#include <cstdio>

namespace rescq::obs {

namespace internal {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

const std::vector<double>& DefaultLatencyBucketsMs() {
  static const std::vector<double> kBuckets = {
      0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
      500.0, 1000.0};
  return kBuckets;
}

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.empty() ? 1
                                                         : bounds_.size()]) {
  for (size_t i = 0; i < bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  // atomic<double> has no fetch_add in C++17; a relaxed CAS loop is the
  // standard substitute and the sum is reporting-only.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      buckets_[i].fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  overflow_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Histogram::BucketCount(size_t i) const {
  if (i >= bounds_.size()) return 0;
  return buckets_[i].load(std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (size_t i = 0; i < bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  overflow_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// --- Registry ---------------------------------------------------------------

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  const std::vector<double>& upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(upper_bounds);
  return *slot;
}

const Counter* Registry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* Registry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* Registry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

// --- Per-thread slot caches -------------------------------------------------

namespace {

Counter& Register(const char* name, Counter*) {
  return GlobalRegistry().GetCounter(name);
}
Gauge& Register(const char* name, Gauge*) {
  return GlobalRegistry().GetGauge(name);
}
Histogram& Register(const char* name, Histogram*) {
  return GlobalRegistry().GetHistogram(name, DefaultLatencyBucketsMs());
}

}  // namespace

namespace internal {

template <typename T>
T& SlotCache<T>::FindSlow(const char* name) {
  size_t i = Home(name);
  for (size_t probe = 0; probe < kSlots; ++probe, i = (i + 1) % kSlots) {
    Entry& e = entries[i];
    if (e.name == name) return *e.slot;
    if (e.name == nullptr) {
      T& slot = Register(name, static_cast<T*>(nullptr));
      e = Entry{name, &slot};
      return slot;
    }
  }
  // More than kSlots names on this thread: the rest go to the registry.
  return Register(name, static_cast<T*>(nullptr));
}

template struct SlotCache<Counter>;
template struct SlotCache<Gauge>;
template struct SlotCache<Histogram>;

thread_local SlotCache<Counter> t_counters;
thread_local SlotCache<Gauge> t_gauges;
thread_local SlotCache<Histogram> t_histograms;

}  // namespace internal

Counter* CounterHandle::Resolve() {
  Counter* c = &GlobalRegistry().GetCounter(name_);
  counter_.store(c, std::memory_order_release);
  return c;
}

namespace {

void AppendIndent(std::string* out, int indent) {
  out->append(static_cast<size_t>(indent), ' ');
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  // %.17g round-trips but is noisy; metrics are reporting-only, so six
  // significant digits keep snapshots short and diffable.
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

void Registry::AppendSnapshotFields(std::string* out, int indent) const {
  std::lock_guard<std::mutex> lock(mu_);
  AppendIndent(out, indent);
  out->append("\"counters\": {");
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out->append(first ? "\n" : ",\n");
    first = false;
    AppendIndent(out, indent + 2);
    AppendQuoted(out, name);
    out->append(": ");
    out->append(std::to_string(c->Value()));
  }
  if (!first) {
    out->push_back('\n');
    AppendIndent(out, indent);
  }
  out->append("},\n");

  AppendIndent(out, indent);
  out->append("\"gauges\": {");
  first = true;
  for (const auto& [name, g] : gauges_) {
    out->append(first ? "\n" : ",\n");
    first = false;
    AppendIndent(out, indent + 2);
    AppendQuoted(out, name);
    out->append(": ");
    AppendDouble(out, g->Value());
  }
  if (!first) {
    out->push_back('\n');
    AppendIndent(out, indent);
  }
  out->append("},\n");

  AppendIndent(out, indent);
  out->append("\"histograms\": {");
  first = true;
  for (const auto& [name, h] : histograms_) {
    out->append(first ? "\n" : ",\n");
    first = false;
    AppendIndent(out, indent + 2);
    AppendQuoted(out, name);
    out->append(": {\n");
    AppendIndent(out, indent + 4);
    out->append("\"buckets\": [");
    for (size_t i = 0; i < h->bounds().size(); ++i) {
      if (i > 0) out->append(", ");
      out->append("{ \"le\": ");
      AppendDouble(out, h->bounds()[i]);
      out->append(", \"count\": ");
      out->append(std::to_string(h->BucketCount(i)));
      out->append(" }");
    }
    out->append("],\n");
    AppendIndent(out, indent + 4);
    out->append("\"overflow\": ");
    out->append(std::to_string(h->OverflowCount()));
    out->append(",\n");
    AppendIndent(out, indent + 4);
    out->append("\"count\": ");
    out->append(std::to_string(h->Count()));
    out->append(",\n");
    AppendIndent(out, indent + 4);
    out->append("\"sum\": ");
    AppendDouble(out, h->Sum());
    out->push_back('\n');
    AppendIndent(out, indent + 2);
    out->push_back('}');
  }
  if (!first) {
    out->push_back('\n');
    AppendIndent(out, indent);
  }
  out->append("}");
}

std::string Registry::SnapshotJson() const {
  std::string out;
  out.append("{\n  \"schema\": \"rescq-metrics/v1\",\n");
  AppendSnapshotFields(&out, 2);
  out.append("\n}\n");
  return out;
}

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();  // leaked: outlives all threads
  return *registry;
}

bool WriteMetricsJson(const Registry& registry, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string json = registry.SnapshotJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  bool ok = written == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace rescq::obs
