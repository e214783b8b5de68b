// MetricsRegistry — the unified, lock-free-hot-path metrics surface.
//
// Every layer of the stack (transport, net, causal, total, check) exposes
// its counters through one registry so a running node can be scraped or
// dumped as a single document. Three primitive families:
//
//   - Counter:  monotonically increasing atomic u64 (relaxed increments —
//     the hot path is one fetch_add, no lock, no branch);
//   - Gauge:    settable atomic i64 (queue depths, holdback depth);
//   - LatencyHistogram: fixed-bucket distribution with atomic bucket
//     counters. Distinct from the sample-storing bench cbc::Histogram
//     (util/stats.h): this one never allocates on record(), answers only
//     bucket-resolution percentiles, and is safe to scrape concurrently.
//
// Primitives are registered by name and owned by the registry; components
// resolve them ONCE at construction and hold plain pointers, so the
// per-event cost is a relaxed atomic op. Registration, collectors, and
// rendering take the registry mutex (cold paths only).
//
// Components whose stats predate the registry (OrderingStats,
// ReliableStats, BatchStats, UdpTransport::Stats) migrate via *collectors*:
// a callback that reads the component's own struct (under the component's
// lock) and emits name/value pairs at scrape time; each component
// registers its own from the obs::Hooks it is given.
//
// Exposition: render_prometheus() emits the Prometheus plaintext format
// (counters, gauges, cumulative `_bucket{le=...}` histograms plus
// `_p50`/`_p90`/`_p99` percentile gauges, names sanitized and prefixed
// `cbc_`), which is what cbc_node serves over TCP and dumps on SIGUSR2. snapshot() returns the same data as a flat map for
// tests and bench/compare.py behavioral gates.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace cbc::obs {

/// Monotonic atomic counter. Hot path: one relaxed fetch_add.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins atomic gauge (plus a monotone max helper).
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises the gauge to `value` if it is below it (peak tracking).
  void record_max(std::int64_t value);
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency distribution; record() is lock-free (a linear
/// bucket scan over ~20 bounds plus one relaxed fetch_add).
class LatencyHistogram {
 public:
  /// `upper_bounds` must be strictly increasing; values above the last
  /// bound land in the implicit +inf bucket. Units are by convention
  /// microseconds (the name should end in `_us`).
  explicit LatencyHistogram(std::vector<double> upper_bounds);

  /// Exponential 1us .. 5s default bounds.
  [[nodiscard]] static std::vector<double> default_bounds();

  void record(double value);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Sum of recorded values (rounded to whole units per sample).
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; last entry is the +inf bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

  /// Bucket-resolution percentile estimate (linear interpolation within
  /// the winning bucket); q in [0,100]. Returns 0 when empty.
  [[nodiscard]] double percentile_estimate(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Receives name/value pairs from scrape-time collectors.
class CollectorSink {
 public:
  void counter(const std::string& name, std::uint64_t value);
  void gauge(const std::string& name, double value);

 private:
  friend class MetricsRegistry;
  // (name, value, is_counter) in emission order.
  std::vector<std::tuple<std::string, double, bool>> values_;
};

class MetricsRegistry;

/// RAII collector registration: unregisters on destruction, so a
/// component may outlive or predecease the scrape loop safely (the
/// registry itself must outlive the handle).
class CollectorHandle {
 public:
  CollectorHandle() = default;
  CollectorHandle(MetricsRegistry* registry, std::size_t id)
      : registry_(registry), id_(id) {}
  CollectorHandle(CollectorHandle&& other) noexcept { *this = std::move(other); }
  CollectorHandle& operator=(CollectorHandle&& other) noexcept;
  CollectorHandle(const CollectorHandle&) = delete;
  CollectorHandle& operator=(const CollectorHandle&) = delete;
  ~CollectorHandle() { reset(); }

  void reset();
  [[nodiscard]] bool attached() const { return registry_ != nullptr; }

 private:
  MetricsRegistry* registry_ = nullptr;
  std::size_t id_ = 0;
};

/// Owns named metric primitives and scrape-time collectors; renders the
/// Prometheus plaintext exposition. Thread-safe; primitive lookups return
/// stable references valid for the registry's lifetime.
class MetricsRegistry {
 public:
  using CollectFn = std::function<void(CollectorSink&)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates; dotted names ("osend.delivered") are conventional
  /// and sanitized to Prometheus form only at render time.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// `bounds` applies only on first creation (empty = default bounds).
  [[nodiscard]] LatencyHistogram& histogram(const std::string& name,
                                            std::vector<double> bounds = {});

  /// Registers a scrape-time value source; prefer CollectorHandle for
  /// automatic unregistration.
  [[nodiscard]] CollectorHandle register_collector(CollectFn fn);
  void unregister_collector(std::size_t id);

  /// Flat name -> value view: counters and gauges verbatim, histograms
  /// expanded to `name.count`, `name.sum`, and `name.p50`/`p90`/`p99`
  /// estimates, plus every collector's output. For tests and compare.py.
  [[nodiscard]] std::map<std::string, double> snapshot() const;

  /// Labels stamped on EVERY series in render_prometheus() — the
  /// multi-process identity story: a cbc_kv replica sets
  /// {shard="2",replica="0"} once and a single scrape target set tells
  /// every process apart. Purely an exposition concern: snapshot() and
  /// metric names stay flat (compare.py baselines are label-free).
  void set_default_labels(
      std::vector<std::pair<std::string, std::string>> labels);

  /// Prometheus plaintext exposition (text/plain; version 0.0.4).
  [[nodiscard]] std::string render_prometheus() const;

  /// Process-wide default registry (cbc_node's exposition surface).
  [[nodiscard]] static MetricsRegistry& global();

 private:
  // Ranked BELOW every component lock (kRankRegistry): the scrape path
  // holds it while collectors take component locks. Never resolve a
  // metric while holding a component lock — resolve handles up front.
  mutable Mutex mutex_{kRankRegistry, "metrics registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      CBC_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      CBC_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      CBC_GUARDED_BY(mutex_);
  std::size_t next_collector_id_ CBC_GUARDED_BY(mutex_) = 1;
  std::vector<std::pair<std::size_t, CollectFn>> collectors_
      CBC_GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, std::string>> default_labels_
      CBC_GUARDED_BY(mutex_);
};

/// Sanitizes a dotted metric name to Prometheus form: `cbc_` prefix,
/// non-[a-zA-Z0-9_] characters replaced with '_'.
[[nodiscard]] std::string prometheus_name(const std::string& name);

}  // namespace cbc::obs
