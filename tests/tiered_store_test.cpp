// Tests for the tiered artifact cache (serve/tiered_store.hpp): caching
// and demotion between the memory and disk tiers, write-through
// semantics, memory-tier warmup, and a disk layout shared with a plain
// ArtifactStore.
#include "serve/tiered_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "support/error.hpp"

namespace scl::serve {
namespace {

namespace fs = std::filesystem;

class TieredStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("scl-tiered-test-" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "-" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  TieredArtifactStore make_store(std::int64_t memory_bytes) const {
    TieredStoreOptions options;
    options.root = root_.string();
    options.memory_capacity_bytes = memory_bytes;
    return TieredArtifactStore(std::move(options));
  }

  static std::string key_of(int i) {
    std::ostringstream key;
    key << std::hex << i;
    std::string tail = key.str();
    return std::string(32 - tail.size(), '0') + tail;
  }

  fs::path root_;
};

TEST_F(TieredStoreTest, RequiresARoot) {
  EXPECT_THROW(TieredArtifactStore(TieredStoreOptions{}), Error);
}

TEST_F(TieredStoreTest, WriteThroughServesFromMemory) {
  TieredArtifactStore store = make_store(1 << 20);
  store.store(key_of(1), "payload-1");
  bool from_memory = false;
  const auto payload = store.load(key_of(1), &from_memory);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "payload-1");
  EXPECT_TRUE(from_memory) << "write-through caches the fresh write";
  const TieredStoreStats stats = store.stats();
  EXPECT_EQ(stats.memory_hits, 1);
  EXPECT_EQ(stats.disk_hits, 0);
  EXPECT_EQ(stats.writes, 1);
}

TEST_F(TieredStoreTest, ColdStartPromotesDiskHitsIntoMemory) {
  // A second store over the same root models a daemon restart: memory
  // is cold, disk is warm.
  make_store(1 << 20).store(key_of(7), "persisted");
  TieredArtifactStore reopened = make_store(1 << 20);
  EXPECT_EQ(reopened.memory_entries(), 0u);

  bool from_memory = true;
  ASSERT_EQ(reopened.load(key_of(7), &from_memory), "persisted");
  EXPECT_FALSE(from_memory) << "first load after restart is a disk hit";
  EXPECT_EQ(reopened.stats().disk_hits, 1);

  ASSERT_EQ(reopened.load(key_of(7), &from_memory), "persisted");
  EXPECT_TRUE(from_memory) << "the disk hit was promoted";
  const TieredStoreStats stats = reopened.stats();
  EXPECT_EQ(stats.disk_hits, 1);
  EXPECT_EQ(stats.memory_hits, 1);
}

TEST_F(TieredStoreTest, WarmupPreloadsDiskArtifactsAcrossRestart) {
  {
    TieredArtifactStore store = make_store(1 << 20);
    for (int i = 0; i < 8; ++i) {
      store.store(key_of(i), "warm-payload-" + std::to_string(i));
    }
  }
  TieredArtifactStore reopened = make_store(1 << 20);
  reopened.warm_memory_tier();

  EXPECT_EQ(reopened.memory_entries(), 8u);
  EXPECT_EQ(reopened.stats().warmed, 8);
  for (int i = 0; i < 8; ++i) {
    bool from_memory = false;
    ASSERT_EQ(reopened.load(key_of(i), &from_memory),
              "warm-payload-" + std::to_string(i));
    EXPECT_TRUE(from_memory)
        << "first post-restart request for " << key_of(i)
        << " must be a memory hit";
  }
  EXPECT_EQ(reopened.stats().disk_hits, 0)
      << "the warmed set never touches disk again";
}

TEST_F(TieredStoreTest, WarmupStopsAtTheMemoryBudget) {
  const std::string payload(600, 'x');
  {
    TieredArtifactStore store = make_store(1 << 20);
    for (int i = 0; i < 10; ++i) store.store(key_of(i), payload);
  }
  // Room for roughly three (key + payload) pairs, nowhere near ten.
  TieredArtifactStore reopened = make_store(2000);
  reopened.warm_memory_tier();

  EXPECT_GT(reopened.memory_entries(), 0u);
  EXPECT_LT(reopened.memory_entries(), 10u);
  EXPECT_LE(reopened.memory_bytes(), 2000);
  EXPECT_EQ(reopened.stats().demotions, 0)
      << "warmup must stop at the budget, not churn the LRU";
}

TEST_F(TieredStoreTest, MissReportsMissAndNothingElse) {
  TieredArtifactStore store = make_store(1 << 20);
  EXPECT_FALSE(store.load(key_of(42)).has_value());
  EXPECT_FALSE(store.contains(key_of(42)));
  const TieredStoreStats stats = store.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits(), 0);
}

TEST_F(TieredStoreTest, MemoryPressureDemotesLruVictimsNotData) {
  // Memory fits ~2 of the 40-byte entries (key 32 + payload ~8); the
  // third insert demotes the least recently used. Demotion loses no
  // data: the victim is still on disk.
  TieredArtifactStore store = make_store(96);
  store.store(key_of(1), "aaaaaaaa");
  store.store(key_of(2), "bbbbbbbb");
  store.store(key_of(3), "cccccccc");
  EXPECT_GT(store.stats().demotions, 0);
  EXPECT_LE(store.memory_bytes(), 96);

  // Every payload is still readable; the demoted ones come from disk.
  for (int i = 1; i <= 3; ++i) {
    const auto payload = store.load(key_of(i));
    ASSERT_TRUE(payload.has_value()) << "key " << i;
    EXPECT_EQ(payload->size(), 8u);
  }
  EXPECT_GT(store.stats().disk_hits, 0);
}

TEST_F(TieredStoreTest, LruRefreshOnLoadProtectsHotKeys) {
  TieredArtifactStore store = make_store(96);
  store.store(key_of(1), "aaaaaaaa");
  store.store(key_of(2), "bbbbbbbb");
  // Touch key 1 so key 2 is the LRU victim when key 3 arrives.
  bool from_memory = false;
  ASSERT_TRUE(store.load(key_of(1), &from_memory).has_value());
  ASSERT_TRUE(from_memory);
  store.store(key_of(3), "cccccccc");

  ASSERT_TRUE(store.load(key_of(1), &from_memory).has_value());
  EXPECT_TRUE(from_memory) << "recently touched key survived the demotion";
  ASSERT_TRUE(store.load(key_of(2), &from_memory).has_value());
  EXPECT_FALSE(from_memory) << "cold key was the demotion victim";
}

TEST_F(TieredStoreTest, OversizedPayloadBypassesMemoryTier) {
  TieredArtifactStore store = make_store(64);
  store.store(key_of(1), std::string(1024, 'x'));  // larger than the tier
  EXPECT_EQ(store.memory_entries(), 0u);
  bool from_memory = true;
  ASSERT_TRUE(store.load(key_of(1), &from_memory).has_value());
  EXPECT_FALSE(from_memory);
}

TEST_F(TieredStoreTest, DisabledMemoryTierStillServes) {
  TieredArtifactStore store = make_store(0);
  store.store(key_of(5), "payload");
  EXPECT_EQ(store.memory_entries(), 0u);
  bool from_memory = true;
  ASSERT_EQ(store.load(key_of(5), &from_memory), "payload");
  EXPECT_FALSE(from_memory);
  EXPECT_EQ(store.stats().disk_hits, 1);
}

TEST_F(TieredStoreTest, DiskTierIsAPlainArtifactStore) {
  // The disk tier keeps ArtifactStore's layout, so a store written by a
  // plain ArtifactStore is served by a tiered store on the same root.
  {
    ArtifactStore plain(ArtifactStoreOptions{root_.string()});
    plain.store(key_of(9), "plain-payload");
  }
  TieredArtifactStore tiered = make_store(1 << 20);
  EXPECT_EQ(tiered.entry_count(), 1u);
  bool from_memory = true;
  ASSERT_EQ(tiered.load(key_of(9), &from_memory), "plain-payload");
  EXPECT_FALSE(from_memory);
}

}  // namespace
}  // namespace scl::serve
