#include "core/eval_cache.hpp"

#include "support/observability/observability.hpp"
#include "support/thread_pool.hpp"

namespace scl::core {

namespace {

support::obs::Counter& cache_hits_counter() {
  static auto& counter = support::obs::metrics().counter(
      "scl_dse_cache_hits_total", "eval-cache lookups served memoized");
  return counter;
}

support::obs::Counter& cache_misses_counter() {
  static auto& counter = support::obs::metrics().counter(
      "scl_dse_cache_misses_total", "eval-cache lookups that computed");
  return counter;
}

}  // namespace

EvalCache::Shard& EvalCache::shard_for(const sim::DesignKey& key) {
  return shards_[sim::DesignKeyHash{}(key) % kShards];
}

void EvalCache::count_hit() {
  stats_[static_cast<std::size_t>(ThreadPool::worker_slot()) &
         (kStatShards - 1)]
      .hits.fetch_add(1, std::memory_order_relaxed);
  if (support::obs::enabled()) cache_hits_counter().increment();
}

void EvalCache::count_miss() {
  stats_[static_cast<std::size_t>(ThreadPool::worker_slot()) &
         (kStatShards - 1)]
      .misses.fetch_add(1, std::memory_order_relaxed);
  if (support::obs::enabled()) cache_misses_counter().increment();
}

bool EvalCache::lookup(const sim::DesignKey& key, CachedEvaluation* out) {
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      *out = it->second;
      count_hit();
      return true;
    }
  }
  count_miss();
  return false;
}

bool EvalCache::insert(const sim::DesignKey& key,
                       const CachedEvaluation& value) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const bool inserted = shard.map.emplace(key, value).second;
  if (inserted) size_.fetch_add(1, std::memory_order_relaxed);
  return inserted;
}

std::int64_t EvalCache::hits() const {
  std::int64_t total = 0;
  for (const StatShard& s : stats_) {
    total += s.hits.load(std::memory_order_relaxed);
  }
  return total;
}

std::int64_t EvalCache::misses() const {
  std::int64_t total = 0;
  for (const StatShard& s : stats_) {
    total += s.misses.load(std::memory_order_relaxed);
  }
  return total;
}

double EvalCache::hit_rate() const {
  const double h = static_cast<double>(hits());
  const double m = static_cast<double>(misses());
  return h + m > 0.0 ? h / (h + m) : 0.0;
}

void EvalCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
  size_.store(0, std::memory_order_relaxed);
  for (StatShard& s : stats_) {
    s.hits.store(0, std::memory_order_relaxed);
    s.misses.store(0, std::memory_order_relaxed);
  }
}

}  // namespace scl::core
