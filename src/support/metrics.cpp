#include "support/metrics.hpp"

#include "support/error.hpp"

namespace apgre {

void Histogram::observe(std::uint64_t value) {
  std::size_t bucket = 0;
  if (value > 0) bucket = static_cast<std::size_t>(63 - __builtin_clzll(value));
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Histogram::buckets() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    const std::uint64_t count = counts_[k].load(std::memory_order_relaxed);
    if (count == 0) continue;
    out.emplace_back(std::uint64_t{1} << k, count);
  }
  return out;
}

void Histogram::reset() {
  for (auto& bucket : counts_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(name), Entry{}).first;
    it->second.kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        it->second.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        it->second.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        it->second.histogram = std::make_unique<Histogram>();
        break;
    }
  } else if (it->second.kind != kind) {
    throw Error("metric `" + std::string(name) +
                "` already registered as a different kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return *entry(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return *entry(name, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return *entry(name, MetricKind::kHistogram).histogram;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    switch (e.kind) {
      case MetricKind::kCounter: e.counter->reset(); break;
      case MetricKind::kGauge: e.gauge->reset(); break;
      case MetricKind::kHistogram: e.histogram->reset(); break;
    }
  }
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::vector<MetricSample> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        sample.number = static_cast<double>(e.counter->value());
        sample.written = e.counter->written();
        break;
      case MetricKind::kGauge:
        sample.number = e.gauge->value();
        sample.written = sample.number != 0.0;
        break;
      case MetricKind::kHistogram:
        sample.number = static_cast<double>(e.histogram->count());
        sample.written = sample.number != 0.0;
        sample.buckets = e.histogram->buckets();
        sample.histogram_sum = e.histogram->sum();
        break;
    }
    out.push_back(std::move(sample));
  }
  return out;  // std::map iteration order is already name-sorted
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose, mirroring the trace buffer registry: pooled worker
  // threads may report after main's statics are destroyed.
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

}  // namespace apgre
