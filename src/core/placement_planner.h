#ifndef ECOSTORE_CORE_PLACEMENT_PLANNER_H_
#define ECOSTORE_CORE_PLACEMENT_PLANNER_H_

#include <cstdint>
#include <vector>

#include "core/hot_cold_planner.h"
#include "core/pattern_classifier.h"
#include "core/planner_index.h"
#include "storage/block_virtualization.h"

namespace ecostore::core {

/// One planned whole-item move between enclosures.
struct Migration {
  DataItemId item = kInvalidDataItem;
  EnclosureId from = kInvalidEnclosure;
  EnclosureId to = kInvalidEnclosure;
};

/// Output of the placement computation.
struct PlacementPlan {
  /// Final hot/cold partition (n_hot may exceed the initial estimate when
  /// Algorithm 2's IOPS guard forced a retry).
  HotColdPartition partition;

  /// Ordered migrations: P0/P1/P2 evictions (hot -> cold) first, then P3
  /// consolidations (cold -> hot), matching the runtime order of paper
  /// §V-A.
  std::vector<Migration> migrations;
};

/// \brief Computes the data placement for one monitoring period: paper
/// Algorithm 2 (P3 items) with Algorithm 3 (P0/P1/P2 items) as its
/// space-making subroutine, wrapped in the "increase N_hot and retry"
/// loop.
///
/// Fleet-scale implementation (DESIGN.md §12): enclosures are traversed
/// through addressable indexed heaps keyed (working IOPS, enclosure id)
/// and updated in O(log n) per ApplyMove, and Algorithm 3's movable-item
/// scan reads per-enclosure buckets built once per TryPlace. Decisions
/// are bit-identical to the stable_sort reference kept in
/// bench/legacy_planner.h — the heap comparators encode exactly the
/// tie-breaks stable sorting implied, and the replay goldens plus
/// tests/planner_differential_test.cc hold the two to the same plans.
class PlacementPlanner {
 public:
  struct Options {
    /// O: maximum random IOPS an enclosure can serve.
    double max_enclosure_iops = 900.0;
    /// S: usable capacity of an enclosure.
    int64_t enclosure_capacity = 0;
  };

  PlacementPlanner(const Options& options, const HotColdPlanner* hot_cold)
      : options_(options), hot_cold_(hot_cold) {}

  /// Computes the placement. Non-const: scratch buffers (working state,
  /// heaps, movable buckets) persist across periods so steady-state
  /// planning allocates nothing.
  PlacementPlan Plan(const ClassificationResult& classification,
                     const storage::BlockVirtualization& virt);

 private:
  /// Mutable per-enclosure load/space model used while planning. Starts
  /// from the current placement and is updated as moves are decided.
  struct WorkingState {
    std::vector<double> iops;        // sum of resident items' avg IOPS
    std::vector<int64_t> used;       // resident bytes
    std::vector<EnclosureId> where;  // item -> enclosure

    void ApplyMove(const ItemClassification& cls, EnclosureId to) {
      EnclosureId from = where[static_cast<size_t>(cls.item)];
      iops[static_cast<size_t>(from)] -= cls.avg_iops;
      used[static_cast<size_t>(from)] -= cls.size_bytes;
      iops[static_cast<size_t>(to)] += cls.avg_iops;
      used[static_cast<size_t>(to)] += cls.size_bytes;
      where[static_cast<size_t>(cls.item)] = to;
    }
  };

  /// Runs Algorithms 2+3 against a fixed partition. Returns false when the
  /// IOPS guard fires (caller must retry with a larger N_hot).
  bool TryPlace(const ClassificationResult& classification,
                const storage::BlockVirtualization& virt,
                const HotColdPartition& partition,
                std::vector<Migration>* evictions,
                std::vector<Migration>* p3_moves);

  Options options_;
  const HotColdPlanner* hot_cold_;

  // ---- reusable scratch (valid only within one Plan call) ----
  WorkingState state_;
  IndexedEnclosureHeap<ColdTargetOrder> cold_;  // cold enclosures
  IndexedEnclosureHeap<HotSourceOrder> hot_;    // hot enclosures
  std::vector<EnclosureId> hot_scan_;   // per-item fixed hot pop order
  std::vector<EnclosureId> cold_scan_;  // find_cold_target pop stash
  std::vector<const ItemClassification*> movers_;  // Algorithm 2's m
  std::vector<Migration> evictions_scratch_;
  std::vector<Migration> p3_moves_scratch_;
  /// Per-enclosure movable (non-P3, unpinned) items, bucketed once per
  /// TryPlace on the first make_space call and sorted lazily per bucket.
  std::vector<std::vector<const ItemClassification*>> buckets_;
  std::vector<uint8_t> bucket_sorted_;
  bool buckets_built_ = false;
};

}  // namespace ecostore::core

#endif  // ECOSTORE_CORE_PLACEMENT_PLANNER_H_
