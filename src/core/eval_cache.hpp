// Memoizing evaluation cache for design-space exploration.
//
// Candidate evaluation (analytical prediction + whole-design resource
// estimation) is a pure function of the DesignConfig, so results are
// memoized under the config's canonical DesignKey. Hits come from the
// overlap between search phases — optimize_baseline() and the Pareto
// sweep walk the same feasible set, the heterogeneous search revisits the
// baseline's fusion column, and fused-depth sweeps (bench_fig7) re-touch
// DSE points — and from repeated evaluate() calls in user sweeps.
//
// Single-threaded: one search runs on its calling thread, so the cache
// is one hash map plus plain hit/miss counts, with no locking. The
// service parallelizes across requests, each with its own Framework and
// hence its own cache.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/resource_estimator.hpp"
#include "model/perf_model.hpp"
#include "sim/design.hpp"

namespace scl::core {

/// One memoized evaluation: the per-candidate sub-results the engine
/// would otherwise recompute — the region decomposition (inside the
/// prediction) and the resource vectors.
struct CachedEvaluation {
  model::Prediction prediction;
  DesignResources resources;
};

class EvalCache {
 public:
  /// Returns the cached evaluation for `key`, or runs `compute`, stores
  /// its result, and returns it. Templated so the hot path pays no
  /// std::function type erasure.
  template <typename Fn>
  CachedEvaluation find_or_compute(const sim::DesignKey& key, Fn&& compute) {
    CachedEvaluation cached;
    if (lookup(key, &cached)) return cached;
    cached = compute();
    insert(key, cached);
    return cached;
  }

  /// True plus the value when `key` is resident (counts as a hit or miss).
  bool lookup(const sim::DesignKey& key, CachedEvaluation* out);

  /// Inserts (first writer wins); returns false when already resident.
  bool insert(const sim::DesignKey& key, const CachedEvaluation& value);

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::int64_t size() const { return static_cast<std::int64_t>(map_.size()); }
  double hit_rate() const;

  /// Empties the cache and zeroes counters.
  void clear();

 private:
  std::unordered_map<sim::DesignKey, CachedEvaluation, sim::DesignKeyHash>
      map_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace scl::core
