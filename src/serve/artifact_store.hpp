// Content-addressed on-disk artifact cache.
//
// Artifacts are immutable payloads addressed by the canonical request key
// (serve/serialize.hpp). The store maps a key to one file under the cache
// root, sharded by the key's first two hex characters to keep directories
// small:
//
//     <root>/<k0k1>/<key>.scla
//
// Each file carries a one-line header ahead of the payload:
//
//     SCLA1 <key> <payload-bytes> <fnv1a64-of-payload-hex>\n<payload>
//
// which makes truncation (byte count mismatch), bit rot (checksum
// mismatch) and cross-key renames (embedded key mismatch) all detectable
// on load. A corrupt file is deleted and reported as a miss — callers
// recompute and overwrite, so corruption is self-healing and never fatal.
//
// Writes are atomic: the payload lands in a unique temp file in the cache
// root first and is renamed into place, so a concurrent reader (or a
// crash) sees either the old artifact or the new one, never a torn write.
//
// Eviction is size-bounded LRU. The in-memory index tracks per-entry
// byte counts and a logical access clock; loads refresh the entry's file
// mtime as well, so recency survives process restarts (a fresh store
// instance rebuilds its LRU order from mtimes during the startup scan).
// All public methods are thread-safe.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace scl::serve {

/// Default byte bound of the on-disk artifact store (every option struct
/// that bounds the disk tier defaults to it).
inline constexpr std::int64_t kDefaultDiskCapacityBytes = 256ll * 1024 * 1024;

struct ArtifactStoreOptions {
  /// Cache root directory; created (recursively) when missing.
  std::string root;
  /// Total on-disk bytes (header + payload) to retain; least-recently-
  /// used artifacts are evicted past it. <= 0 disables eviction.
  std::int64_t capacity_bytes = kDefaultDiskCapacityBytes;
};

struct ArtifactStoreStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t writes = 0;
  std::int64_t evictions = 0;
  std::int64_t corrupt_dropped = 0;  ///< truncated/bit-rotted files deleted
};

class ArtifactStore {
 public:
  /// Opens (and if needed creates) the store, scanning existing artifacts
  /// into the LRU index. Throws scl::Error when the root is unusable.
  explicit ArtifactStore(ArtifactStoreOptions options);

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Returns the payload stored under `key`, or nullopt on miss. A
  /// corrupt file counts as a miss (and is deleted).
  std::optional<std::string> load(const std::string& key);

  /// Stores `payload` under `key` (overwriting any previous artifact),
  /// then evicts LRU entries beyond the capacity bound.
  void store(const std::string& key, const std::string& payload);

  /// True when `key` is present (no LRU touch, no validation).
  bool contains(const std::string& key) const;

  std::size_t entry_count() const;
  std::int64_t total_bytes() const;
  ArtifactStoreStats stats() const;
  const std::string& root() const { return options_.root; }

  /// One row of recency(): a stored artifact with its whole-file byte
  /// count and on-disk mtime.
  struct RecencyEntry {
    std::string key;
    std::int64_t bytes = 0;
    std::filesystem::file_time_type mtime;
  };

  /// Stored artifacts ordered most-recently-used first (by file mtime,
  /// key as the tie-break). mtimes survive restarts, so the tiered
  /// store's hot-tier warmup uses this to rebuild yesterday's working
  /// set. Entries whose file vanished underneath the index are skipped.
  std::vector<RecencyEntry> recency() const;

 private:
  struct Entry {
    std::int64_t bytes = 0;
    std::uint64_t last_use = 0;
  };

  std::filesystem::path path_for(const std::string& key) const;
  void scan_existing();
  void evict_locked();
  void drop_corrupt_locked(const std::string& key,
                           const std::filesystem::path& path);

  ArtifactStoreOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  std::int64_t total_bytes_ = 0;
  std::uint64_t use_clock_ = 0;
  std::uint64_t temp_counter_ = 0;
  ArtifactStoreStats stats_;
};

}  // namespace scl::serve
