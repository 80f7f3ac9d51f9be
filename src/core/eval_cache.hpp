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
// Thread safety: entries live in kShards mutex-guarded hash maps,
// sharded by key hash, so concurrent workers rarely contend on one lock.
// With branch-and-bound a search evaluates hundreds of designs, not tens
// of thousands, so a lock per lookup costs nothing measurable.
//
// Memoization cannot perturb results (values are pure); when two workers
// race to fill the same key, the first writer wins and both observe the
// identical value.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
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
  /// Error diagnostics the static design verifier reported for this
  /// config; 0 unless the engine runs with analyze_candidates. Pure in
  /// the config like the rest of the evaluation, hence cacheable.
  std::int64_t analysis_errors = 0;
};

class EvalCache {
 public:
  /// Returns the cached evaluation for `key`, or runs `compute`, stores
  /// its result, and returns it. `compute` may run concurrently for the
  /// same key under a race; both callers get the same (pure) value.
  /// Templated so the hot path pays no std::function type erasure.
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

  std::int64_t hits() const;
  std::int64_t misses() const;
  std::int64_t size() const { return size_.load(std::memory_order_relaxed); }
  double hit_rate() const;

  /// Empties the cache and zeroes counters. Requires quiescence: no
  /// concurrent cache calls.
  void clear();

 private:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kStatShards = 16;

  // Hit/miss tallies are sharded by worker slot and cache-line padded so
  // the hot path never bounces one shared counter between cores.
  struct alignas(64) StatShard {
    std::atomic<std::int64_t> hits{0};
    std::atomic<std::int64_t> misses{0};
  };

  struct Shard {
    std::mutex mutex;
    std::unordered_map<sim::DesignKey, CachedEvaluation, sim::DesignKeyHash>
        map;
  };

  void count_hit();
  void count_miss();
  Shard& shard_for(const sim::DesignKey& key);

  Shard shards_[kShards];
  std::atomic<std::int64_t> size_{0};
  StatShard stats_[kStatShards];
};

}  // namespace scl::core
