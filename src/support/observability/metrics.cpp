#include "support/observability/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/error.hpp"

namespace scl::support::obs {

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  auto tail = [&](char c) { return head(c) || (c >= '0' && c <= '9'); };
  if (!head(name[0])) return false;
  return std::all_of(name.begin() + 1, name.end(), tail);
}

/// Exposition value formatting: integers render without a point, other
/// values with up to 10 significant digits — deterministic for the
/// counter/gauge magnitudes the framework produces.
std::string format_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void Gauge::add(double delta) {
  value_.fetch_add(delta, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  SCL_CHECK(!bounds_.empty(), "histogram needs at least one bucket bound");
  SCL_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                    bounds_.end(),
            "histogram bucket bounds must be strictly ascending");
}

void Histogram::observe(double value) {
  // First bound >= value (`le` semantics); past-the-end = +Inf bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    snap.counts.push_back(c.load(std::memory_order_relaxed));
    snap.count += snap.counts.back();
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

double Histogram::Snapshot::percentile(double p) const {
  if (count <= 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Nearest-rank target, then linear interpolation inside the bucket
  // that holds it.
  const auto target = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(p * static_cast<double>(count))));
  std::int64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    cumulative += counts[b];
    if (cumulative < target) continue;
    if (b >= bounds.size()) {
      // Overflow bucket: clamp to the last finite bound.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double lower = b == 0 ? 0.0 : bounds[b - 1];
    const double upper = bounds[b];
    const auto into_bucket =
        static_cast<double>(target - (cumulative - counts[b]));
    const double fraction = into_bucket / static_cast<double>(counts[b]);
    return lower + fraction * (upper - lower);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

const std::vector<double>& default_latency_ms_buckets() {
  static const std::vector<double> buckets{
      0.25, 0.5,  1.0,    2.5,    5.0,    10.0,    25.0,    50.0,
      100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0};
  return buckets;
}

MetricsRegistry::Metric& MetricsRegistry::find_or_register(
    std::string_view name, Kind kind, std::string_view help,
    std::vector<double>* bounds) {
  if (!valid_metric_name(name)) {
    throw Error("invalid metric name '" + std::string(name) + "'");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::lower_bound(
      metrics_.begin(), metrics_.end(), name,
      [](const auto& entry, std::string_view n) { return entry.first < n; });
  if (it != metrics_.end() && it->first == name) {
    if (it->second->kind != kind) {
      throw Error("metric '" + std::string(name) +
                  "' already registered under a different kind");
    }
    return *it->second;
  }
  auto metric = std::make_unique<Metric>();
  metric->kind = kind;
  metric->help = std::string(help);
  switch (kind) {
    case Kind::kCounter:
      metric->counter.reset(new Counter());
      break;
    case Kind::kGauge:
      metric->gauge.reset(new Gauge());
      break;
    case Kind::kHistogram:
      metric->histogram.reset(new Histogram(std::move(*bounds)));
      break;
  }
  Metric& ref = *metric;
  metrics_.insert(it, {std::string(name), std::move(metric)});
  return ref;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  return *find_or_register(name, Kind::kCounter, help, nullptr).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  return *find_or_register(name, Kind::kGauge, help, nullptr).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      std::string_view help) {
  return *find_or_register(name, Kind::kHistogram, help, &bounds).histogram;
}

std::size_t MetricsRegistry::metric_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.size();
}

std::string MetricsRegistry::render_exposition() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, metric] : metrics_) {
    if (!metric->help.empty()) {
      out += "# HELP " + name + " " + metric->help + "\n";
    }
    switch (metric->kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " +
               format_value(static_cast<double>(metric->counter->value())) +
               "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + format_value(metric->gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        const Histogram::Snapshot snap = metric->histogram->snapshot();
        std::int64_t cumulative = 0;
        for (std::size_t b = 0; b < snap.bounds.size(); ++b) {
          cumulative += snap.counts[b];
          out += name + "_bucket{le=\"" + format_value(snap.bounds[b]) +
                 "\"} " + format_value(static_cast<double>(cumulative)) +
                 "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " +
               format_value(static_cast<double>(snap.count)) + "\n";
        out += name + "_sum " + format_value(snap.sum) + "\n";
        out += name + "_count " +
               format_value(static_cast<double>(snap.count)) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace scl::support::obs
