#ifndef ECOSTORE_BENCH_LEGACY_CACHE_H_
#define ECOSTORE_BENCH_LEGACY_CACHE_H_

// The pre-PR-2 StorageCache, kept verbatim (modulo inline/namespace) as
// the in-run regression reference for bench_micro: an unordered_map
// block index plus a node-allocating std::list LRU, and freshly
// allocated demand vectors on every call. The cache-mix benchmark runs
// the identical operation stream through this model and through the
// current slab cache, asserts that every aggregate agrees, and reports
// both throughputs to BENCH_perf.json — the same pattern as the
// classifier oracle in bench/legacy_classifier.h.

#include <algorithm>
#include <cassert>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/storage_config.h"

namespace ecostore::legacy {

struct FlushDemand {
  DataItemId item = kInvalidDataItem;
  int64_t blocks = 0;
  int64_t bytes = 0;
};

class LegacyStorageCache {
 public:
  struct ReadOutcome {
    int64_t hit_blocks = 0;
    int64_t miss_blocks = 0;
    std::vector<FlushDemand> eviction_flushes;

    bool fully_hit() const { return miss_blocks == 0; }
  };

  struct WriteOutcome {
    bool write_delayed = false;
    std::vector<FlushDemand> destage;
  };

  explicit LegacyStorageCache(const storage::CacheConfig& config)
      : config_(config) {
    general_capacity_blocks_ =
        std::max<int64_t>(1, config_.general_area_bytes() / config_.block_size);
    wd_capacity_blocks_ = std::max<int64_t>(
        1, config_.write_delay_area_bytes / config_.block_size);
  }

  ReadOutcome Read(DataItemId item, int64_t offset, int32_t size) {
    ReadOutcome out;
    int64_t first = FirstBlock(offset);
    int64_t last = LastBlock(offset, size);
    bool preloaded = IsPreloaded(item);
    auto wd_it = wd_dirty_.find(item);
    for (int64_t b = first; b <= last; ++b) {
      if (preloaded) {
        out.hit_blocks++;
        continue;
      }
      if (wd_it != wd_dirty_.end() && wd_it->second.count(b) > 0) {
        out.hit_blocks++;
        continue;
      }
      BlockKey key{item, b};
      auto it = general_.find(key);
      if (it != general_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        out.hit_blocks++;
      } else {
        out.miss_blocks++;
        InsertGeneral(key, /*dirty=*/false, &out.eviction_flushes);
      }
    }
    hit_blocks_ += out.hit_blocks;
    miss_blocks_ += out.miss_blocks;
    return out;
  }

  WriteOutcome Write(DataItemId item, int64_t offset, int32_t size) {
    WriteOutcome out;
    int64_t first = FirstBlock(offset);
    int64_t last = LastBlock(offset, size);
    int64_t blocks = last - first + 1;
    absorbed_write_blocks_ += blocks;

    if (write_delay_items_.count(item) > 0) {
      out.write_delayed = true;
      auto& set = wd_dirty_[item];
      for (int64_t b = first; b <= last; ++b) {
        if (set.insert(b).second) wd_dirty_total_++;
      }
      double limit = config_.write_delay_dirty_ratio *
                     static_cast<double>(wd_capacity_blocks_);
      if (static_cast<double>(wd_dirty_total_) >= limit) {
        out.destage = DestageWriteDelay();
      }
      return out;
    }

    std::vector<FlushDemand> evictions;
    for (int64_t b = first; b <= last; ++b) {
      InsertGeneral(BlockKey{item, b}, /*dirty=*/true, &evictions);
    }
    for (const FlushDemand& d : evictions) {
      AppendDemand(d.item, d.blocks, d.bytes, &out.destage);
    }
    double limit = config_.default_dirty_ratio *
                   static_cast<double>(general_capacity_blocks_);
    if (static_cast<double>(general_dirty_) >= limit) {
      std::vector<FlushDemand> destage = DestageGeneral();
      for (const FlushDemand& d : destage) {
        AppendDemand(d.item, d.blocks, d.bytes, &out.destage);
      }
    }
    return out;
  }

  std::vector<FlushDemand> SetWriteDelayItems(
      const std::unordered_set<DataItemId>& items) {
    std::vector<FlushDemand> demands;
    for (auto it = wd_dirty_.begin(); it != wd_dirty_.end();) {
      if (items.count(it->first) == 0) {
        int64_t blocks = static_cast<int64_t>(it->second.size());
        if (blocks > 0) {
          AppendDemand(it->first, blocks, blocks * config_.block_size,
                       &demands);
          wd_dirty_total_ -= blocks;
        }
        it = wd_dirty_.erase(it);
      } else {
        ++it;
      }
    }
    write_delay_items_ = items;
    return demands;
  }

  Result<std::vector<DataItemId>> SetPreloadItems(
      const std::vector<std::pair<DataItemId, int64_t>>& sizes) {
    int64_t total = 0;
    for (const auto& [item, size] : sizes) total += size;
    if (total > config_.preload_area_bytes) {
      return Status::CapacityExceeded(
          "preload selection exceeds preload area");
    }
    std::unordered_map<DataItemId, PreloadEntry> next;
    std::vector<DataItemId> to_load;
    for (const auto& [item, size] : sizes) {
      auto it = preload_items_.find(item);
      if (it != preload_items_.end() && it->second.loaded) {
        next.emplace(item, it->second);
      } else {
        next.emplace(item, PreloadEntry{size, false});
        to_load.push_back(item);
      }
    }
    preload_items_ = std::move(next);
    return to_load;
  }

  Status MarkPreloaded(DataItemId item) {
    auto it = preload_items_.find(item);
    if (it == preload_items_.end()) {
      return Status::NotFound("item not in preload set");
    }
    it->second.loaded = true;
    return Status::OK();
  }

  bool IsPreloaded(DataItemId item) const {
    auto it = preload_items_.find(item);
    return it != preload_items_.end() && it->second.loaded;
  }

  std::vector<FlushDemand> FlushAll() {
    std::vector<FlushDemand> demands = DestageGeneral();
    for (const FlushDemand& d : DestageWriteDelay()) {
      AppendDemand(d.item, d.blocks, d.bytes, &demands);
    }
    return demands;
  }

  std::vector<FlushDemand> InvalidateItem(DataItemId item) {
    std::vector<FlushDemand> demands;
    for (auto it = general_.begin(); it != general_.end();) {
      if (it->first.item == item) {
        if (it->second.dirty) {
          general_dirty_--;
          AppendDemand(item, 1, config_.block_size, &demands);
        }
        lru_.erase(it->second.lru_pos);
        it = general_.erase(it);
      } else {
        ++it;
      }
    }
    auto wd_it = wd_dirty_.find(item);
    if (wd_it != wd_dirty_.end()) {
      int64_t blocks = static_cast<int64_t>(wd_it->second.size());
      if (blocks > 0) {
        AppendDemand(item, blocks, blocks * config_.block_size, &demands);
        wd_dirty_total_ -= blocks;
      }
      wd_dirty_.erase(wd_it);
    }
    return demands;
  }

  int64_t hit_blocks() const { return hit_blocks_; }
  int64_t miss_blocks() const { return miss_blocks_; }
  int64_t absorbed_write_blocks() const { return absorbed_write_blocks_; }
  int64_t general_dirty_blocks() const { return general_dirty_; }
  int64_t write_delay_dirty_blocks() const { return wd_dirty_total_; }

 private:
  struct BlockKey {
    DataItemId item;
    int64_t block;
    bool operator==(const BlockKey& o) const {
      return item == o.item && block == o.block;
    }
  };
  struct BlockKeyHash {
    size_t operator()(const BlockKey& k) const {
      return std::hash<int64_t>()((static_cast<int64_t>(k.item) << 40) ^
                                  k.block);
    }
  };
  struct GeneralEntry {
    std::list<BlockKey>::iterator lru_pos;
    bool dirty = false;
  };
  struct PreloadEntry {
    int64_t size_bytes = 0;
    bool loaded = false;
  };

  int64_t FirstBlock(int64_t offset) const {
    return offset / config_.block_size;
  }
  int64_t LastBlock(int64_t offset, int32_t size) const {
    return (offset + std::max<int32_t>(size, 1) - 1) / config_.block_size;
  }

  static void AppendDemand(DataItemId item, int64_t blocks, int64_t bytes,
                           std::vector<FlushDemand>* out) {
    for (FlushDemand& d : *out) {
      if (d.item == item) {
        d.blocks += blocks;
        d.bytes += bytes;
        return;
      }
    }
    out->push_back(FlushDemand{item, blocks, bytes});
  }

  void InsertGeneral(const BlockKey& key, bool dirty,
                     std::vector<FlushDemand>* eviction_flushes) {
    auto it = general_.find(key);
    if (it != general_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      if (dirty && !it->second.dirty) {
        it->second.dirty = true;
        general_dirty_++;
      }
      return;
    }
    while (static_cast<int64_t>(general_.size()) >= general_capacity_blocks_) {
      BlockKey victim = lru_.back();
      lru_.pop_back();
      auto vit = general_.find(victim);
      assert(vit != general_.end());
      if (vit->second.dirty) {
        general_dirty_--;
        AppendDemand(victim.item, 1, config_.block_size, eviction_flushes);
      }
      general_.erase(vit);
    }
    lru_.push_front(key);
    general_.emplace(key, GeneralEntry{lru_.begin(), dirty});
    if (dirty) general_dirty_++;
  }

  std::vector<FlushDemand> DestageGeneral() {
    std::vector<FlushDemand> demands;
    for (auto& [key, entry] : general_) {
      if (entry.dirty) {
        entry.dirty = false;
        AppendDemand(key.item, 1, config_.block_size, &demands);
      }
    }
    general_dirty_ = 0;
    return demands;
  }

  std::vector<FlushDemand> DestageWriteDelay() {
    std::vector<FlushDemand> demands;
    for (auto& [item, set] : wd_dirty_) {
      if (!set.empty()) {
        AppendDemand(item, static_cast<int64_t>(set.size()),
                     static_cast<int64_t>(set.size()) * config_.block_size,
                     &demands);
      }
    }
    wd_dirty_.clear();
    wd_dirty_total_ = 0;
    return demands;
  }

  storage::CacheConfig config_;
  int64_t general_capacity_blocks_;
  int64_t wd_capacity_blocks_;

  std::list<BlockKey> lru_;  // front = most recent
  std::unordered_map<BlockKey, GeneralEntry, BlockKeyHash> general_;
  int64_t general_dirty_ = 0;

  std::unordered_set<DataItemId> write_delay_items_;
  std::unordered_map<DataItemId, std::unordered_set<int64_t>> wd_dirty_;
  int64_t wd_dirty_total_ = 0;

  std::unordered_map<DataItemId, PreloadEntry> preload_items_;

  int64_t hit_blocks_ = 0;
  int64_t miss_blocks_ = 0;
  int64_t absorbed_write_blocks_ = 0;
};

}  // namespace ecostore::legacy

#endif  // ECOSTORE_BENCH_LEGACY_CACHE_H_
