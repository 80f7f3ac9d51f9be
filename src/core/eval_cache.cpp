#include "core/eval_cache.hpp"

#include <thread>

#include "support/error.hpp"
#include "support/observability/observability.hpp"
#include "support/thread_pool.hpp"

namespace scl::core {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

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

EvalCache::EvalCache(std::size_t capacity)
    : slots_(round_up_pow2(capacity < 2 ? 2 : capacity)) {
  SCL_CHECK(capacity >= 1, "eval cache needs at least one slot");
  slot_mask_ = slots_.size() - 1;
  overflow_.reserve(kOverflowShards);
  for (std::size_t i = 0; i < kOverflowShards; ++i) {
    overflow_.push_back(std::make_unique<OverflowShard>());
  }
}

EvalCache::OverflowShard& EvalCache::overflow_for(std::size_t hash) {
  // The slot table consumes the low hash bits; shard on high bits.
  return *overflow_[(hash >> 32) & (kOverflowShards - 1)];
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
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  const std::size_t start = sim::DesignKeyHash{}(key);
  for (std::size_t p = 0; p < kMaxProbe; ++p) {
    const Slot& slot = slots_[(start + p) & slot_mask_];
    const std::uint64_t s = slot.state.load(std::memory_order_acquire);
    const std::uint64_t phase = s & 3u;
    if (phase == kEmpty || (s >> 2) != epoch) {
      // Empty, or filled in a cleared-away epoch (logically empty).
      // Slots never empty out within an epoch, so the key cannot sit
      // further along the probe chain either — definite miss.
      count_miss();
      return false;
    }
    if (phase == kBusy) {
      // Mid-insert by another worker. Reporting a miss here is benign:
      // evaluations are pure, so the duplicate compute converges on the
      // identical value and insert() dedupes it.
      count_miss();
      return false;
    }
    // Ready in the current epoch: the key/value bytes are immutable
    // until the next clear(), and the acquire above synchronizes with
    // the writer's release, so this read is race-free without a lock.
    if (slot.key == key) {
      *out = slot.value;
      count_hit();
      return true;
    }
  }
  // The whole probe window is occupied by other keys: the entry, if it
  // exists, spilled to the overflow map.
  OverflowShard& shard = overflow_for(start);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    count_miss();
    return false;
  }
  *out = it->second;
  count_hit();
  return true;
}

bool EvalCache::insert(const sim::DesignKey& key,
                       const CachedEvaluation& value) {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  const std::uint64_t busy_word = (epoch << 2) | kBusy;
  const std::uint64_t ready_word = (epoch << 2) | kReady;
  const std::size_t start = sim::DesignKeyHash{}(key);
  for (std::size_t p = 0; p < kMaxProbe; ++p) {
    Slot& slot = slots_[(start + p) & slot_mask_];
    std::uint64_t s = slot.state.load(std::memory_order_acquire);
    while (true) {
      const std::uint64_t phase = s & 3u;
      const bool current = (s >> 2) == epoch;
      if (phase == kEmpty || !current) {
        // Claimable: empty, or left over from a cleared-away epoch.
        if (slot.state.compare_exchange_weak(s, busy_word,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
          slot.key = key;
          slot.value = value;
          slot.state.store(ready_word, std::memory_order_release);
          size_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        continue;  // CAS failure reloaded `s`; re-examine.
      }
      if (phase == kBusy) {
        // Another writer owns this slot; wait it out so the same-key
        // check below is exact (this is what keeps size() precise when
        // workers race on one key).
        std::this_thread::yield();
        s = slot.state.load(std::memory_order_acquire);
        continue;
      }
      // Ready in the current epoch.
      if (slot.key == key) return false;  // first writer already won
      break;  // occupied by a different key — next probe position
    }
  }
  OverflowShard& shard = overflow_for(start);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const bool inserted = shard.map.emplace(key, value).second;
  if (inserted) {
    size_.fetch_add(1, std::memory_order_relaxed);
    spilled_.fetch_add(1, std::memory_order_relaxed);
  }
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
  // Bumping the epoch makes every slot's state word stale, which readers
  // and writers treat as empty: an O(1) wipe of the slot table. Requires
  // quiescence (documented), so no reader can be mid-copy of a value a
  // later insert overwrites.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  for (const auto& shard : overflow_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->map.clear();
  }
  size_.store(0, std::memory_order_relaxed);
  spilled_.store(0, std::memory_order_relaxed);
  for (StatShard& s : stats_) {
    s.hits.store(0, std::memory_order_relaxed);
    s.misses.store(0, std::memory_order_relaxed);
  }
}

}  // namespace scl::core
