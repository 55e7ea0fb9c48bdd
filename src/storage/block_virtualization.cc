#include "storage/block_virtualization.h"

#include <cassert>

namespace ecostore::storage {

BlockVirtualization::BlockVirtualization(const DataItemCatalog* catalog,
                                         int num_enclosures,
                                         int64_t enclosure_capacity)
    : catalog_(catalog), capacity_(enclosure_capacity) {
  assert(catalog != nullptr);
  assert(num_enclosures > 0);
  used_bytes_.assign(static_cast<size_t>(num_enclosures), 0);
}

Status BlockVirtualization::PlaceInitial() {
  placement_.assign(catalog_->item_count(), kInvalidEnclosure);
  std::fill(used_bytes_.begin(), used_bytes_.end(), 0);
  for (const DataItem& item : catalog_->items()) {
    EnclosureId enc = catalog_->initial_enclosure(item.id);
    if (enc < 0 || static_cast<size_t>(enc) >= used_bytes_.size()) {
      return Status::InvalidArgument("volume mapped to unknown enclosure");
    }
    if (used_bytes_[static_cast<size_t>(enc)] + item.size_bytes > capacity_) {
      return Status::CapacityExceeded("initial placement overflows enclosure " +
                                      std::to_string(enc));
    }
    placement_[static_cast<size_t>(item.id)] = enc;
    used_bytes_[static_cast<size_t>(enc)] += item.size_bytes;
  }
  return Status::OK();
}

Status BlockVirtualization::MoveItem(DataItemId item, EnclosureId target) {
  if (item < 0 || static_cast<size_t>(item) >= placement_.size()) {
    return Status::NotFound("unknown item");
  }
  if (target < 0 || static_cast<size_t>(target) >= used_bytes_.size()) {
    return Status::InvalidArgument("unknown enclosure");
  }
  EnclosureId source = placement_[static_cast<size_t>(item)];
  if (source == target) return Status::OK();
  int64_t size = catalog_->item(item).size_bytes;
  if (used_bytes_[static_cast<size_t>(target)] + size > capacity_) {
    return Status::CapacityExceeded("enclosure " + std::to_string(target) +
                                    " cannot fit item");
  }
  used_bytes_[static_cast<size_t>(source)] -= size;
  used_bytes_[static_cast<size_t>(target)] += size;
  placement_[static_cast<size_t>(item)] = target;
  return Status::OK();
}

std::vector<DataItemId> BlockVirtualization::ItemsOn(
    EnclosureId enclosure) const {
  std::vector<DataItemId> items;
  for (size_t i = 0; i < placement_.size(); ++i) {
    if (placement_[i] == enclosure) {
      items.push_back(static_cast<DataItemId>(i));
    }
  }
  return items;
}

}  // namespace ecostore::storage
