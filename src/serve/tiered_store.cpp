#include "serve/tiered_store.hpp"

#include <utility>
#include <vector>

namespace scl::serve {

TieredArtifactStore::TieredArtifactStore(TieredStoreOptions options)
    : memory_capacity_bytes_(options.memory_capacity_bytes),
      disk_(ArtifactStoreOptions{std::move(options.root),
                                 options.disk_capacity_bytes}) {}

void TieredArtifactStore::warm_memory_tier() {
  // recency() is already most-recent first; take artifacts in that order
  // until the memory budget is full.
  std::int64_t budget = memory_capacity_bytes_;
  std::vector<std::pair<std::string, std::string>> hot;
  for (const auto& entry : disk_.recency()) {
    if (entry.bytes > budget) break;  // on-disk bytes upper-bound memory cost
    std::optional<std::string> payload = disk_.load(entry.key);
    if (!payload) continue;  // corrupt: dropped by the disk store, skip
    budget -= static_cast<std::int64_t>(entry.key.size() + payload->size());
    hot.emplace_back(entry.key, std::move(*payload));
    if (budget <= 0) break;
  }
  // cache_locked pushes to the LRU front, so insert coldest-first to
  // leave the most recent artifact at the front.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = hot.rbegin(); it != hot.rend(); ++it) {
    cache_locked(it->first, it->second);
    ++stats_.warmed;
  }
}

void TieredArtifactStore::cache_locked(const std::string& key,
                                       const std::string& payload) {
  if (memory_capacity_bytes_ <= 0) return;
  const auto bytes = static_cast<std::int64_t>(key.size() + payload.size());
  if (bytes > memory_capacity_bytes_) return;  // would evict all
  if (const auto it = index_.find(key); it != index_.end()) {
    memory_bytes_ -= static_cast<std::int64_t>(
        it->second->key.size() + it->second->payload.size());
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(MemoryEntry{key, payload});
  index_[key] = lru_.begin();
  memory_bytes_ += bytes;
  while (memory_bytes_ > memory_capacity_bytes_) {
    const MemoryEntry& victim = lru_.back();
    memory_bytes_ -= static_cast<std::int64_t>(victim.key.size() +
                                               victim.payload.size());
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.demotions;
  }
}

std::optional<std::string> TieredArtifactStore::load(const std::string& key,
                                                     bool* from_memory) {
  if (from_memory != nullptr) *from_memory = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      ++stats_.memory_hits;
      if (from_memory != nullptr) *from_memory = true;
      return it->second->payload;
    }
  }
  // Disk I/O happens outside the memory lock so memory hits never wait
  // on a disk read.
  std::optional<std::string> payload = disk_.load(key);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!payload) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.disk_hits;
  cache_locked(key, *payload);
  return payload;
}

void TieredArtifactStore::store(const std::string& key,
                                const std::string& payload) {
  // Durability before visibility: the disk write lands first, so a
  // memory entry always has a disk backing to demote onto.
  disk_.store(key, payload);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.writes;
  cache_locked(key, payload);
}

bool TieredArtifactStore::contains(const std::string& key) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.count(key) != 0) return true;
  }
  return disk_.contains(key);
}

std::size_t TieredArtifactStore::memory_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

std::int64_t TieredArtifactStore::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_bytes_;
}

TieredStoreStats TieredArtifactStore::stats() const {
  TieredStoreStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats = stats_;
  }
  const ArtifactStoreStats disk = disk_.stats();
  stats.evictions = disk.evictions;
  stats.corrupt_dropped = disk.corrupt_dropped;
  return stats;
}

}  // namespace scl::serve
