/// \file metrics.h
/// \brief Process-wide metrics registry: counters, gauges and fixed-bucket
/// latency histograms with a lock-free fast path.
///
/// The paper's entire evaluation (Table 1, Figs 10–12) decomposes where
/// cycles go — enclave transitions, state encrypt/decrypt, EPC paging,
/// consensus. This registry makes those quantities first-class: every
/// subsystem registers named instruments once (a mutex-guarded slow path)
/// and then updates them with relaxed std::atomic operations (the hot
/// path never takes a lock). A MetricsSnapshot captures a consistent-ish
/// point-in-time copy that tests assert on and benchmarks export as JSON
/// (`metrics.json` next to every bench result).
///
/// Naming convention (see DESIGN.md §Observability):
///   <subsystem>.<object>.<action>[.<unit>]
/// e.g. `tee.transition.count`, `storage.wal.sync.count`,
/// `confide.execute.latency_ns`. Counters are monotone; gauges are signed
/// levels; histograms carry their bucket upper bounds.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace confide::metrics {

/// \brief Monotone counter. All mutation is relaxed-atomic.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Signed level (pool sizes, resident bytes, cache entries).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed-bucket histogram. `bounds` are inclusive upper bounds of
/// each bucket; one extra overflow bucket catches everything above the
/// last bound. Observation is a binary search plus two relaxed adds.
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> bounds);

  void Observe(uint64_t value);

  /// \brief Default bounds for nanosecond latencies: 1 µs … 10 s in a
  /// 1-2-5 ladder (22 buckets + overflow).
  static std::vector<uint64_t> DefaultLatencyBoundsNs();

  const std::vector<uint64_t>& bounds() const { return bounds_; }
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<uint64_t> bounds_;                       // sorted upper bounds
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;   // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// \brief Point-in-time copy of every registered instrument.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<uint64_t> bounds;
    std::vector<uint64_t> counts;  // bounds.size() + 1 (overflow last)
    uint64_t count = 0;
    uint64_t sum = 0;

    bool operator==(const HistogramData&) const = default;
  };

  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// \brief Counter value, or 0 when absent (convenience for tests).
  uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

  /// \brief Serializes to a stable, human-readable JSON document.
  std::string ToJson() const;

  /// \brief Parses ToJson() output back (bench tooling, round-trip tests).
  static Result<MetricsSnapshot> FromJson(std::string_view json);

  bool operator==(const MetricsSnapshot&) const = default;
};

/// \brief Thread-safe named registry. Registration takes a mutex;
/// returned pointers are stable for the registry's lifetime, so call
/// sites hoist them into static locals and pay only the atomic update.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// \brief The process-wide registry every subsystem instruments.
  static MetricsRegistry& Global();

  /// \brief Finds or creates. A name maps to one instrument kind; looking
  /// it up as another kind returns nullptr — callers own name hygiene.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// \brief `bounds` applies on first registration only (empty = default
  /// nanosecond-latency ladder).
  Histogram* GetHistogram(std::string_view name,
                          std::vector<uint64_t> bounds = {});

  /// \brief Copies every instrument's current value.
  MetricsSnapshot Snapshot() const;

  /// \brief Zeroes all instruments (tests and bench warm-up; instruments
  /// stay registered and pointers stay valid).
  void ResetAll();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// \brief Shorthands for the common "static local instrument" pattern:
///   metrics::GetCounter("tee.ecall.count")->Increment();
/// call sites wrap these in a static to skip the map lookup.
inline Counter* GetCounter(std::string_view name) {
  return MetricsRegistry::Global().GetCounter(name);
}
inline Gauge* GetGauge(std::string_view name) {
  return MetricsRegistry::Global().GetGauge(name);
}
inline Histogram* GetHistogram(std::string_view name,
                               std::vector<uint64_t> bounds = {}) {
  return MetricsRegistry::Global().GetHistogram(name, std::move(bounds));
}

/// \brief Writes the global registry's `Snapshot().ToJson()` plus a newline
/// to `path` (the `metrics.json` dump of benches and daemons).
Status DumpSnapshot(const std::string& path);

/// \brief RAII timer observing wall nanoseconds into a histogram.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* histogram);
  ~ScopedLatencyTimer();
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
};

}  // namespace confide::metrics
