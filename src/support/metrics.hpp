// Process-wide registry of named counters / gauges / histograms the BC
// algorithm family reports into: per-phase timings, per-sub-graph sizes,
// traversed-arc counts, CAS-retry counts, redundancy-eliminated vertices.
//
// Registration (the first counter("x") call) takes a mutex; the returned
// reference is stable for the registry's lifetime, so callers fetch once
// per run and update lock-free afterwards. Hot loops must still accumulate
// into a local variable and add() once per phase — a counter add is an
// atomic RMW, not free.
//
// Naming scheme (docs/OBSERVABILITY.md): `<component>.<metric>`, e.g.
// `bc.lockfree.traversed_arcs`, `apgre.subgraph_vertices`. Counters
// accumulate across runs until reset(); gauges hold the last run's value.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace apgre {

/// Monotonic event count; add() is lock-free.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    written_.store(true, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// add() was called since the last reset(), add(0) included.
  bool written() const { return written_.load(std::memory_order_relaxed); }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    written_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
  std::atomic<bool> written_{false};
};

/// Last-write-wins double (phase seconds, ratios); add() for the rare case
/// of several threads contributing to one run's value.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed histogram: bucket k counts values in [2^k, 2^(k+1)) and
/// bucket 0 additionally holds the value 0 — Log2Histogram's convention
/// (support/stats.hpp), but safe for concurrent observe().
class Histogram {
 public:
  void observe(std::uint64_t value);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// (bucket lower bound, count) pairs for non-empty buckets, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets() const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, 64> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric in a snapshot(). Counters and gauges fill `number`;
/// histograms put the observation count there and fill buckets + sum.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double number = 0.0;
  /// Updated since the last reset(): Counter::written() for counters, a
  /// non-zero value for gauges, at least one observation for histograms.
  bool written = false;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  std::uint64_t histogram_sum = 0;
};

class MetricsRegistry {
 public:
  /// Find-or-create by name. Throws Error when `name` is already registered
  /// as a different kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zero every value; registrations (and references into the registry)
  /// survive. Benchmarks call this between measured runs.
  void reset();

  /// Point-in-time copy of every metric, sorted by name.
  std::vector<MetricSample> snapshot() const;

  /// The process-wide registry the BC family reports into.
  static MetricsRegistry& global();

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, MetricKind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace apgre
