#ifndef ECOSTORE_STORAGE_BLOCK_VIRTUALIZATION_H_
#define ECOSTORE_STORAGE_BLOCK_VIRTUALIZATION_H_

#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/data_item.h"

namespace ecostore::storage {

/// \brief The block-virtualization layer: maps each data item to the disk
/// enclosure currently holding it and tracks per-enclosure space use
/// (the Storage Monitor's physical mapping information, paper §III-B).
///
/// Items occupy a contiguous extent; the extent base encodes the item id,
/// giving stable, unique physical block addresses for physical traces.
class BlockVirtualization {
 public:
  /// \param catalog the workload's data items (not owned; must outlive this)
  /// \param num_enclosures number of enclosures in the array
  /// \param enclosure_capacity usable bytes per enclosure
  BlockVirtualization(const DataItemCatalog* catalog, int num_enclosures,
                      int64_t enclosure_capacity);

  /// Places every item on its volume's initial enclosure. Fails when an
  /// enclosure would overflow.
  Status PlaceInitial();

  EnclosureId EnclosureOf(DataItemId item) const {
    return placement_.at(static_cast<size_t>(item));
  }

  /// Moves an item's mapping to `target` (instantaneous bookkeeping; the
  /// data transfer itself is the runtime power saver's job).
  Status MoveItem(DataItemId item, EnclosureId target);

  int64_t UsedBytes(EnclosureId enclosure) const {
    return used_bytes_.at(static_cast<size_t>(enclosure));
  }
  int64_t FreeBytes(EnclosureId enclosure) const {
    return capacity_ - UsedBytes(enclosure);
  }
  int64_t capacity_bytes() const { return capacity_; }
  int num_enclosures() const {
    return static_cast<int>(used_bytes_.size());
  }

  /// Items currently resident on an enclosure (catalog order).
  std::vector<DataItemId> ItemsOn(EnclosureId enclosure) const;

  /// Stable physical base block of an item's extent.
  int64_t BaseBlock(DataItemId item) const {
    return static_cast<int64_t>(item) << 32;
  }

  /// Append-only residency journal: one entry per committed MoveItem that
  /// actually changed an item's enclosure, in commit order. The power-
  /// management function's enclosure-of cache reads the suffix past its
  /// cursor to learn which items moved since the last plan (stale
  /// in-flight migrations can land an item on a cold enclosure between
  /// periods); see DESIGN.md §12. Cleared by PlaceInitial.
  const std::vector<DataItemId>& move_log() const { return move_log_; }
  size_t move_log_size() const { return move_log_.size(); }

  const DataItemCatalog& catalog() const { return *catalog_; }

 private:
  const DataItemCatalog* catalog_;
  int64_t capacity_;
  std::vector<EnclosureId> placement_;  // item -> enclosure
  std::vector<int64_t> used_bytes_;     // per enclosure
  std::vector<DataItemId> move_log_;    // committed residency changes
};

}  // namespace ecostore::storage

#endif  // ECOSTORE_STORAGE_BLOCK_VIRTUALIZATION_H_
