#include "policies/ddr_policy.h"

#include <algorithm>

namespace ecostore::policies {

void DdrPolicy::Start(const storage::StorageSystem& system,
                      PolicyActuator* actuator) {
  actuator_ = actuator;
  auto n = static_cast<size_t>(system.num_enclosures());
  cold_.assign(n, false);
  window_iops_.assign(n, 0.0);
  window_migrated_.assign(n, 0);
  window_ios_.assign(n, 0);
  ending_ios_.assign(n, 0);
  // Spin-down permission follows the cold classification; everything
  // starts hot (no observations yet).
  for (int e = 0; e < system.num_enclosures(); ++e) {
    actuator->SetSpinDownAllowed(static_cast<EnclosureId>(e), false);
  }
}

void DdrPolicy::OnPhysicalIo(const trace::PhysicalIoRecord& rec) {
  auto e = static_cast<size_t>(rec.enclosure);
  if (e >= window_ios_.size()) return;
  window_ios_[e]++;
  if (actuator_ == nullptr || !cold_[e]) return;
  if (window_migrated_[e] >= options_.migration_cap_bytes) return;

  // An access hit a cold enclosure: move the touched blocks to the hot
  // enclosure with the most headroom under TargetTH.
  int best = -1;
  double best_iops = 0.0;
  for (size_t h = 0; h < cold_.size(); ++h) {
    if (cold_[h] || h == e) continue;
    if (window_iops_[h] >= options_.target_th) continue;
    if (best < 0 || window_iops_[h] < best_iops) {
      best = static_cast<int>(h);
      best_iops = window_iops_[h];
    }
  }
  if (best < 0) return;
  window_migrated_[e] += rec.size;
  actuator_->RequestBlockMigration(rec.enclosure,
                                   static_cast<EnclosureId>(best), rec.size);
}

SimDuration DdrPolicy::OnPeriodEnd(const monitor::MonitorSnapshot& snapshot,
                                   const storage::StorageSystem& system,
                                   PolicyActuator* actuator) {
  auto n = static_cast<size_t>(system.num_enclosures());
  // Swap the window's counters out first: any I/O issued from here on
  // belongs to the next window.
  ending_ios_.swap(window_ios_);
  std::fill(window_ios_.begin(), window_ios_.end(), 0);
  double seconds = ToSeconds(snapshot.period_length());
  if (seconds <= 0) seconds = ToSeconds(options_.window);

  for (size_t e = 0; e < n; ++e) {
    window_iops_[e] = static_cast<double>(ending_ios_[e]) / seconds;
    bool cold = window_iops_[e] < low_th();
    placement_determinations_++;
    if (cold != cold_[e]) {
      cold_[e] = cold;
      actuator->SetSpinDownAllowed(static_cast<EnclosureId>(e), cold);
    }
    window_migrated_[e] = 0;
  }
  return options_.window;
}

}  // namespace ecostore::policies
