// Unit + property tests for the controller cache (general LRU, preload
// area, write-delay area).

#include <gtest/gtest.h>

#include <numeric>

#include "common/random.h"
#include "storage/storage_cache.h"

namespace ecostore::storage {
namespace {

CacheConfig SmallCache() {
  CacheConfig config;
  config.block_size = 4096;
  config.total_bytes = 64 * 4096;        // 64 blocks total
  config.preload_area_bytes = 16 * 4096;  // 16 blocks
  config.write_delay_area_bytes = 16 * 4096;
  config.default_dirty_ratio = 0.25;     // general: 32 blocks, destage at 8
  config.write_delay_dirty_ratio = 0.5;  // wd: destage at 8 blocks
  return config;
}

int64_t TotalBlocks(const std::vector<FlushDemand>& demands) {
  return std::accumulate(demands.begin(), demands.end(), int64_t{0},
                         [](int64_t acc, const FlushDemand& d) {
                           return acc + d.blocks;
                         });
}

/// Wraps a cache with the caller-owned scratch vector the hot-path API
/// requires, mirroring how StorageSystem drives it.
struct CacheHarness {
  explicit CacheHarness(const CacheConfig& config) : cache(config) {}

  StorageCache::ReadOutcome Read(DataItemId item, int64_t offset,
                                 int32_t size) {
    return cache.Read(item, offset, size, &scratch);
  }
  StorageCache::WriteOutcome Write(DataItemId item, int64_t offset,
                                   int32_t size) {
    return cache.Write(item, offset, size, &scratch);
  }

  StorageCache cache;
  std::vector<FlushDemand> scratch;
};

TEST(StorageCacheTest, ColdReadMissesThenHits) {
  CacheHarness h(SmallCache());
  auto miss = h.Read(1, 0, 4096);
  EXPECT_EQ(miss.miss_blocks, 1);
  EXPECT_EQ(miss.hit_blocks, 0);
  auto hit = h.Read(1, 0, 4096);
  EXPECT_EQ(hit.miss_blocks, 0);
  EXPECT_EQ(hit.hit_blocks, 1);
  EXPECT_TRUE(hit.fully_hit());
}

TEST(StorageCacheTest, MultiBlockSpan) {
  CacheHarness h(SmallCache());
  // 10000 bytes starting at offset 100 touches blocks 0..2.
  auto out = h.Read(1, 100, 10000);
  EXPECT_EQ(out.miss_blocks, 3);
}

TEST(StorageCacheTest, LruEvictsOldest) {
  CacheHarness h(SmallCache());
  // Fill the 32-block general area with reads of items 1..32.
  for (int i = 0; i < 32; ++i) h.Read(1, i * 4096, 4096);
  // Touch block 0 to make it most-recent, then overflow by one.
  h.Read(1, 0, 4096);
  h.Read(2, 0, 4096);
  // Block 0 must still be resident; block 1 (the LRU) was evicted.
  EXPECT_TRUE(h.Read(1, 0, 4096).fully_hit());
  EXPECT_FALSE(h.Read(1, 1 * 4096, 4096).fully_hit());
}

TEST(StorageCacheTest, WriteIsAbsorbedAndDirty) {
  CacheHarness h(SmallCache());
  auto out = h.Write(1, 0, 4096);
  EXPECT_FALSE(out.write_delayed);
  EXPECT_TRUE(h.scratch.empty());
  EXPECT_EQ(h.cache.general_dirty_blocks(), 1);
  // The dirty block is readable from cache.
  EXPECT_TRUE(h.Read(1, 0, 4096).fully_hit());
}

TEST(StorageCacheTest, GeneralDestageAtDirtyRatio) {
  CacheHarness h(SmallCache());
  // Threshold: 25% of 32 = 8 dirty blocks -> the 8th write destages all.
  std::vector<FlushDemand> destaged;
  for (int i = 0; i < 8; ++i) {
    h.Write(1, i * 4096, 4096);
    for (const auto& d : h.scratch) destaged.push_back(d);
  }
  EXPECT_EQ(TotalBlocks(destaged), 8);
  EXPECT_EQ(h.cache.general_dirty_blocks(), 0);
  // Blocks remain cached (clean) after the destage.
  EXPECT_TRUE(h.Read(1, 0, 4096).fully_hit());
}

TEST(StorageCacheTest, DirtyEvictionEmitsFlush) {
  CacheConfig config = SmallCache();
  config.default_dirty_ratio = 1.0;  // never destage by ratio
  CacheHarness h(config);
  for (int i = 0; i < 4; ++i) h.Write(9, i * 4096, 4096);
  // Flood the general area with clean reads to force dirty evictions.
  std::vector<FlushDemand> evicted;
  for (int i = 0; i < 40; ++i) {
    h.Read(1, i * 4096, 4096);
    for (const auto& d : h.scratch) evicted.push_back(d);
  }
  EXPECT_EQ(TotalBlocks(evicted), 4);
  for (const auto& d : evicted) EXPECT_EQ(d.item, 9);
}

TEST(StorageCacheTest, WriteDelayRoutesToDedicatedArea) {
  CacheHarness h(SmallCache());
  ASSERT_TRUE(h.cache.SetWriteDelayItems({7}).empty());
  auto out = h.Write(7, 0, 4096);
  EXPECT_TRUE(out.write_delayed);
  EXPECT_EQ(h.cache.write_delay_dirty_blocks(), 1);
  EXPECT_EQ(h.cache.general_dirty_blocks(), 0);
  // Write-delayed blocks serve reads.
  EXPECT_TRUE(h.Read(7, 0, 4096).fully_hit());
}

TEST(StorageCacheTest, WriteDelayDestagesAtEnlargedRatio) {
  CacheHarness h(SmallCache());
  h.cache.SetWriteDelayItems({7});
  std::vector<FlushDemand> destaged;
  for (int i = 0; i < 8; ++i) {  // 50% of 16 blocks
    h.Write(7, i * 4096, 4096);
    for (const auto& d : h.scratch) destaged.push_back(d);
  }
  EXPECT_EQ(TotalBlocks(destaged), 8);
  EXPECT_EQ(h.cache.write_delay_dirty_blocks(), 0);
}

TEST(StorageCacheTest, RewritingSameBlockDoesNotDoubleCount) {
  CacheHarness h(SmallCache());
  h.cache.SetWriteDelayItems({7});
  h.Write(7, 0, 4096);
  h.Write(7, 0, 4096);
  EXPECT_EQ(h.cache.write_delay_dirty_blocks(), 1);
}

TEST(StorageCacheTest, LeavingWriteDelaySetFlushes) {
  CacheHarness h(SmallCache());
  h.cache.SetWriteDelayItems({7, 8});
  h.Write(7, 0, 4096);
  h.Write(8, 0, 4096);
  auto demands = h.cache.SetWriteDelayItems({8});
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands[0].item, 7);
  EXPECT_EQ(demands[0].blocks, 1);
  EXPECT_EQ(h.cache.write_delay_dirty_blocks(), 1);  // item 8 remains
}

TEST(StorageCacheTest, PreloadLifecycle) {
  CacheHarness h(SmallCache());
  auto to_load = h.cache.SetPreloadItems({{3, 8 * 4096}});
  ASSERT_TRUE(to_load.ok());
  ASSERT_EQ(to_load.value().size(), 1u);
  EXPECT_TRUE(h.cache.IsPreloadSelected(3));
  EXPECT_FALSE(h.cache.IsPreloaded(3));
  // Not loaded yet: reads still miss.
  EXPECT_FALSE(h.Read(3, 0, 4096).fully_hit());
  ASSERT_TRUE(h.cache.MarkPreloaded(3).ok());
  EXPECT_TRUE(h.cache.IsPreloaded(3));
  EXPECT_TRUE(h.Read(3, 4 * 4096, 4096).fully_hit());
}

TEST(StorageCacheTest, PreloadKeepsLoadedItemsAcrossReplacement) {
  CacheHarness h(SmallCache());
  ASSERT_TRUE(h.cache.SetPreloadItems({{3, 4 * 4096}}).ok());
  ASSERT_TRUE(h.cache.MarkPreloaded(3).ok());
  auto to_load = h.cache.SetPreloadItems({{3, 4 * 4096}, {4, 4 * 4096}});
  ASSERT_TRUE(to_load.ok());
  // Only the new item needs loading (paper §V-C).
  ASSERT_EQ(to_load.value().size(), 1u);
  EXPECT_EQ(to_load.value()[0], 4);
  EXPECT_TRUE(h.cache.IsPreloaded(3));
}

TEST(StorageCacheTest, PreloadRejectsOverBudget) {
  CacheHarness h(SmallCache());
  auto result = h.cache.SetPreloadItems({{3, 17 * 4096}});  // area is 16 blocks
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCapacityExceeded());
}

TEST(StorageCacheTest, MarkPreloadedUnknownItemFails) {
  CacheHarness h(SmallCache());
  EXPECT_FALSE(h.cache.MarkPreloaded(99).ok());
}

TEST(StorageCacheTest, FlushAllDrainsEverything) {
  CacheHarness h(SmallCache());
  h.cache.SetWriteDelayItems({7});
  h.Write(7, 0, 4096);
  h.Write(1, 0, 4096);
  auto demands = h.cache.FlushAll();
  EXPECT_EQ(TotalBlocks(demands), 2);
  EXPECT_EQ(h.cache.general_dirty_blocks(), 0);
  EXPECT_EQ(h.cache.write_delay_dirty_blocks(), 0);
}

TEST(StorageCacheTest, InvalidateItemDropsAndReturnsDirty) {
  CacheHarness h(SmallCache());
  h.Read(5, 0, 4096);       // clean resident block
  h.Write(5, 4096, 4096);   // dirty block
  auto demands = h.cache.InvalidateItem(5);
  EXPECT_EQ(TotalBlocks(demands), 1);
  EXPECT_FALSE(h.Read(5, 0, 4096).fully_hit());  // dropped
}

std::vector<DataItemId> DemandItems(const std::vector<FlushDemand>& demands) {
  std::vector<DataItemId> items;
  for (const FlushDemand& d : demands) items.push_back(d.item);
  return items;
}

/// Leaves three dirty general-area blocks whose slab order (items 30, 20,
/// 10) differs from item order (10, 20, 30), from LRU order in either
/// direction (20, 30, 10 most-recent first) and from the order they were
/// dirtied (10, 30, 20). Items 30 and 20 take slots 0 and 1 by reusing the
/// slots of evicted blocks; item 10's dirty block sits in slot 31.
void DirtyThreeItemsOutOfSlabOrder(CacheHarness* h) {
  for (int b = 0; b < 32; ++b) h->Read(10, b * 4096, 4096);  // slots 0..31
  h->Write(10, 31 * 4096, 4096);  // hit: slot 31 dirty
  h->Write(30, 0, 4096);          // evicts slot 0 (item 10 block 0), reuses it
  h->Write(20, 0, 4096);          // evicts slot 1 (item 10 block 1), reuses it
  ASSERT_EQ(h->cache.general_dirty_blocks(), 3);
}

// Destage demands are first-touch ordered by ascending slab slot. The
// differential test normalizes demand order, so this pins it directly.
TEST(StorageCacheTest, FlushAllDestagesInSlabOrder) {
  CacheHarness h(SmallCache());
  DirtyThreeItemsOutOfSlabOrder(&h);
  auto demands = h.cache.FlushAll();
  EXPECT_EQ(DemandItems(demands), (std::vector<DataItemId>{30, 20, 10}));
  EXPECT_EQ(TotalBlocks(demands), 3);
  EXPECT_EQ(h.cache.general_dirty_blocks(), 0);
  // A second flush finds nothing dirty.
  EXPECT_TRUE(h.cache.FlushAll().empty());
}

TEST(StorageCacheTest, DirtyRatioDestagesInSlabOrder) {
  CacheHarness h(SmallCache());
  DirtyThreeItemsOutOfSlabOrder(&h);
  // Four more write hits on item 10 (slots 20..23) reach 7 dirty blocks;
  // the fifth (slot 10) reaches the threshold of 8 and destages them all.
  for (int b : {20, 21, 22, 23}) {
    h.Write(10, b * 4096, 4096);
    ASSERT_TRUE(h.scratch.empty());
  }
  h.Write(10, 10 * 4096, 4096);
  ASSERT_EQ(h.scratch.size(), 3u);
  EXPECT_EQ(DemandItems(h.scratch), (std::vector<DataItemId>{30, 20, 10}));
  EXPECT_EQ(h.scratch[0].blocks, 1);
  EXPECT_EQ(h.scratch[1].blocks, 1);
  EXPECT_EQ(h.scratch[2].blocks, 6);
  EXPECT_EQ(h.scratch[2].bytes, 6 * 4096);
  EXPECT_EQ(h.cache.general_dirty_blocks(), 0);
}

// Property: dirty counters never go negative and never exceed area
// capacities under random op sequences.
class CachePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CachePropertyTest, CountersStayConsistent) {
  Xoshiro256 rng(GetParam());
  CacheHarness h(SmallCache());
  std::unordered_set<DataItemId> wd = {1, 2};
  h.cache.SetWriteDelayItems(wd);
  for (int step = 0; step < 3000; ++step) {
    DataItemId item = static_cast<DataItemId>(rng.UniformInt(1, 6));
    int64_t offset = rng.UniformInt(0, 63) * 4096;
    switch (rng.UniformInt(0, 3)) {
      case 0:
        h.Read(item, offset, 4096);
        break;
      case 1:
        h.Write(item, offset, 4096);
        break;
      case 2:
        h.cache.InvalidateItem(item);
        break;
      case 3:
        if (rng.Bernoulli(0.1)) h.cache.FlushAll();
        break;
    }
    EXPECT_GE(h.cache.general_dirty_blocks(), 0);
    EXPECT_LE(h.cache.general_dirty_blocks(), 32);
    EXPECT_GE(h.cache.write_delay_dirty_blocks(), 0);
    EXPECT_LE(h.cache.write_delay_dirty_blocks(), 16);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachePropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace ecostore::storage
