// Lock-cheap process metrics: counters, gauges and fixed-bucket
// histograms behind a registry with a Prometheus-style text exposition.
//
// Hot-path writes never take a lock: a counter is one relaxed atomic, a
// histogram one array of atomic bucket counts plus an atomic sum, and a
// gauge one atomic (sets are rare: queue depths, store sizes).
//
// The registry owns every metric; handles returned by counter()/gauge()/
// histogram() are stable for the registry's lifetime, so call sites cache
// them in function-local statics instead of re-doing the name lookup per
// event. Registration is idempotent — asking for an existing name returns
// the existing metric — but asking for a name under a different kind
// throws, which turns silent double-registration bugs into test failures.
//
// Determinism contract: metrics are observation-only. Nothing in the
// synthesis flow reads a metric back to make a decision, so enabling
// observability cannot perturb chosen designs or artifact bytes (the
// serve determinism tests enforce this end to end).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace scl::support::obs {

/// Dense index of the calling thread, assigned on first use. Labels
/// trace events; indices are never reused within a process.
int thread_index();

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }

  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, store bytes, ...).
class Gauge {
 public:
  void set(double value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with percentile estimation.
///
/// Buckets follow Prometheus `le` semantics: an observation lands in the
/// first bucket whose upper bound is >= the value; values above every
/// bound land in the implicit +Inf overflow bucket. Percentiles are
/// estimated by linear interpolation inside the bucket that holds the
/// target rank; a rank falling in the overflow bucket clamps to the last
/// finite bound (the histogram cannot know how far past it the tail
/// goes).
class Histogram {
 public:
  void observe(double value);

  struct Snapshot {
    std::vector<double> bounds;         ///< finite upper bounds, ascending
    std::vector<std::int64_t> counts;   ///< bounds.size() + 1 (+Inf last)
    std::int64_t count = 0;
    double sum = 0.0;

    /// Estimated value at quantile `p` in [0, 1]; 0 when empty.
    double percentile(double p) const;
  };

  Snapshot snapshot() const;
  std::int64_t count() const { return snapshot().count; }
  double percentile(double p) const { return snapshot().percentile(p); }

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> counts_;  ///< bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

/// Default bucket bounds for millisecond-scale latencies (sub-ms parse
/// calls up to multi-second cold syntheses).
const std::vector<double>& default_latency_ms_buckets();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the named metric, registering it on first use. Names must
  /// match [a-zA-Z_:][a-zA-Z0-9_:]*; re-registering a name under a
  /// different kind throws scl::Error. `help` is kept from the first
  /// registration. For histograms the bounds are also kept from the
  /// first registration (they must be ascending and non-empty).
  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       std::string_view help = "");

  /// Prometheus-style text exposition, metrics sorted by name (histogram
  /// bucket lines are cumulative, per the format). Deterministic for a
  /// given set of metric values.
  std::string render_exposition() const;

  std::size_t metric_count() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Metric {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Metric& find_or_register(std::string_view name, Kind kind,
                           std::string_view help,
                           std::vector<double>* bounds);

  mutable std::mutex mutex_;
  /// Sorted map so the exposition renders in name order.
  std::vector<std::pair<std::string, std::unique_ptr<Metric>>> metrics_;
};

}  // namespace scl::support::obs
