#ifndef ECOSTORE_MONITOR_STORAGE_MONITOR_H_
#define ECOSTORE_MONITOR_STORAGE_MONITOR_H_

#include <algorithm>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "storage/storage_system.h"

namespace ecostore::monitor {

/// \brief The Storage Monitor (paper §III-B): per-enclosure power status
/// counters below the block-virtualization layer.
///
/// It keeps no physical I/O trace: a policy that needs physical behaviour
/// (DDR) accumulates it in StoragePolicy::OnPhysicalIo(), which the
/// runtime calls for every physical I/O.
class StorageMonitor : public storage::StorageObserver {
 public:
  explicit StorageMonitor(int num_enclosures)
      : power_on_counts_(static_cast<size_t>(num_enclosures), 0) {}

  void OnPowerStateChange(EnclosureId enclosure, SimTime at,
                          storage::PowerState state) override {
    (void)at;
    if (state == storage::PowerState::kSpinningUp) {
      power_on_counts_[static_cast<size_t>(enclosure)]++;
    }
  }

  /// Power-on count of an enclosure within the current period (used by the
  /// pattern-change trigger, paper §V-D condition ii).
  int64_t power_on_count(EnclosureId enclosure) const {
    return power_on_counts_.at(static_cast<size_t>(enclosure));
  }

  SimTime period_start() const { return period_start_; }

  void ResetPeriod(SimTime now) {
    std::fill(power_on_counts_.begin(), power_on_counts_.end(), 0);
    period_start_ = now;
  }

 private:
  std::vector<int64_t> power_on_counts_;
  SimTime period_start_ = 0;
};

}  // namespace ecostore::monitor

#endif  // ECOSTORE_MONITOR_STORAGE_MONITOR_H_
