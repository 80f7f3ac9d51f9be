// Tiered artifact cache: hot in-memory LRU over one on-disk store.
//
// One namespace of 128-bit content addresses (serve/serialize.hpp) is
// served by two tiers:
//
//   * memory — a byte-bounded LRU of recently served payloads. A hit here
//     costs a map lookup and a list splice; no disk I/O, no checksum.
//   * disk   — one ArtifactStore root (serve/artifact_store.hpp), whose
//     layout is the plain store's: a tiered store and an ArtifactStore
//     opened on the same root see the same artifacts.
//
// Writes go through both tiers (write-through): the payload lands on disk
// first — durability before visibility — then enters the memory tier. A
// disk hit is copied into memory on load; a memory eviction is a silent
// *demotion* (the payload is still on disk, so the next load is a disk
// hit that re-caches it). Corruption handling lives entirely in the disk
// tier: memory never holds a payload that was not first persisted or
// validated.
//
// All public methods are thread-safe. The memory tier serializes on one
// mutex — payload moves are O(1) splices and the working set is small;
// disk I/O runs outside it under the disk store's own lock.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "serve/artifact_store.hpp"

namespace scl::serve {

/// Default byte bound of the in-memory artifact tier.
inline constexpr std::int64_t kDefaultMemoryCapacityBytes = 64ll * 1024 * 1024;

struct TieredStoreOptions {
  /// Disk root (one ArtifactStore); must be non-empty.
  std::string root;
  /// Byte bound of the disk tier.
  std::int64_t disk_capacity_bytes = kDefaultDiskCapacityBytes;
  /// Byte bound of the in-memory tier; <= 0 disables it (every load goes
  /// to disk, which turns the tiered store into a plain ArtifactStore).
  std::int64_t memory_capacity_bytes = kDefaultMemoryCapacityBytes;
};

struct TieredStoreStats {
  std::int64_t memory_hits = 0;
  std::int64_t disk_hits = 0;    ///< memory miss served (and cached) by disk
  std::int64_t misses = 0;       ///< absent from every tier
  std::int64_t demotions = 0;    ///< memory LRU evictions (still on disk)
  std::int64_t warmed = 0;       ///< artifacts preloaded by warm_memory_tier
  std::int64_t writes = 0;
  std::int64_t evictions = 0;         ///< disk-tier LRU evictions
  std::int64_t corrupt_dropped = 0;   ///< disk-tier corruption recoveries

  std::int64_t hits() const { return memory_hits + disk_hits; }
};

class TieredArtifactStore {
 public:
  /// Opens the disk store (creating the root as needed). Throws
  /// scl::Error when the root is empty or unusable.
  explicit TieredArtifactStore(TieredStoreOptions options);

  TieredArtifactStore(const TieredArtifactStore&) = delete;
  TieredArtifactStore& operator=(const TieredArtifactStore&) = delete;

  /// Fills the memory tier with the most-recently-used disk artifacts
  /// (by file mtime) until the memory budget is full, so a restarted
  /// process serves yesterday's hot set from memory on its first
  /// request. Each payload is loaded through the disk store, so its
  /// checksum is validated before it is cached.
  void warm_memory_tier();

  /// Memory tier first, then disk (caching a disk hit in memory).
  /// nullopt when both tiers miss. When `from_memory` is non-null it
  /// reports which tier served the hit.
  std::optional<std::string> load(const std::string& key,
                                  bool* from_memory = nullptr);

  /// Write-through: persists to disk, then caches in memory.
  void store(const std::string& key, const std::string& payload);

  /// True when either tier holds `key` (no LRU touch, no caching).
  bool contains(const std::string& key) const;

  std::size_t memory_entries() const;
  std::int64_t memory_bytes() const;
  /// Disk-tier bytes and entries.
  std::int64_t total_bytes() const { return disk_.total_bytes(); }
  std::size_t entry_count() const { return disk_.entry_count(); }

  TieredStoreStats stats() const;

 private:
  struct MemoryEntry {
    std::string key;
    std::string payload;
  };

  void cache_locked(const std::string& key, const std::string& payload);

  const std::int64_t memory_capacity_bytes_;
  ArtifactStore disk_;

  mutable std::mutex mutex_;
  std::list<MemoryEntry> lru_;  ///< front = most recent
  std::unordered_map<std::string, std::list<MemoryEntry>::iterator> index_;
  std::int64_t memory_bytes_ = 0;
  TieredStoreStats stats_;
};

}  // namespace scl::serve
