#ifndef ECOSTORE_BENCH_LEGACY_SPINDOWN_H_
#define ECOSTORE_BENCH_LEGACY_SPINDOWN_H_

// The per-physical-I/O idle-timeout spin-down of the seed StorageSystem,
// kept as the regression reference for the per-enclosure idle-check
// timer (DESIGN.md §8) — the same pattern as bench/legacy_cache.h. Every
// physical submission to an enclosure that may spin down, and every
// false→true change of that permission, schedules its own check event at
// max(now, busy_until) + timeout; a check powers the enclosure off when
// it is still allowed, on, drained and idle for the whole timeout.
//
// Only the physical-submission path of StorageSystem is reproduced (no
// cache, virtualization or telemetry), with the same observer
// notifications in the same order, so tests/storage_system_test.cc can
// drive both with one operation stream and compare what observers see.
//
// Do NOT evolve this copy: it pins the seed's spin-down behaviour.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "storage/disk_enclosure.h"
#include "storage/storage_config.h"
#include "storage/storage_system.h"
#include "trace/io_record.h"

namespace ecostore::legacy {

class LegacySpinDownArray {
 public:
  LegacySpinDownArray(sim::Simulator* simulator,
                      const storage::StorageConfig& config)
      : sim_(simulator),
        config_(config),
        spin_down_allowed_(static_cast<size_t>(config.num_enclosures),
                           false) {
    for (int i = 0; i < config.num_enclosures; ++i) {
      enclosures_.push_back(std::make_unique<storage::DiskEnclosure>(
          static_cast<EnclosureId>(i), config.enclosure));
    }
  }

  void AddObserver(storage::StorageObserver* observer) {
    observers_.push_back(observer);
  }

  storage::DiskEnclosure& enclosure(EnclosureId id) {
    return *enclosures_.at(static_cast<size_t>(id));
  }

  SimTime SubmitPhysicalBulk(EnclosureId enclosure, int64_t n_ios,
                             int64_t bytes, IoType type, bool sequential,
                             int64_t block_hint = 0) {
    storage::DiskEnclosure& enc = *enclosures_.at(
        static_cast<size_t>(enclosure));
    SimTime now = sim_->Now();
    storage::DiskEnclosure::IoGrant grant =
        enc.SubmitIo(now, n_ios, bytes, type, sequential);
    if (grant.powered_on) {
      for (storage::StorageObserver* obs : observers_) {
        obs->OnPowerStateChange(enclosure, now,
                                storage::PowerState::kSpinningUp);
      }
    }
    if (grant.idle_gap_before >= config_.idle_gap_notify_floor) {
      for (storage::StorageObserver* obs : observers_) {
        obs->OnIdleGapEnd(enclosure, now, grant.idle_gap_before);
      }
    }
    trace::PhysicalIoRecord rec;
    rec.time = now;
    rec.enclosure = enclosure;
    rec.block = block_hint;
    rec.size = static_cast<int32_t>(std::min<int64_t>(
        bytes, std::numeric_limits<int32_t>::max()));
    rec.type = type;
    rec.sequential = sequential;
    for (storage::StorageObserver* obs : observers_) obs->OnPhysicalIo(rec);
    if (spin_down_allowed_[static_cast<size_t>(enclosure)]) {
      ArmSpinDownTimer(enclosure);
    }
    return grant.completion;
  }

  void SetSpinDownAllowed(EnclosureId enclosure, bool allowed) {
    bool was = spin_down_allowed_.at(static_cast<size_t>(enclosure));
    spin_down_allowed_[static_cast<size_t>(enclosure)] = allowed;
    if (allowed && !was) ArmSpinDownTimer(enclosure);
  }

 private:
  void ArmSpinDownTimer(EnclosureId enclosure) {
    storage::DiskEnclosure& enc = *enclosures_[static_cast<size_t>(enclosure)];
    SimTime check_at = std::max(sim_->Now(), enc.busy_until()) +
                       config_.enclosure.spindown_timeout;
    sim_->ScheduleAt(check_at, [this, enclosure] {
      storage::DiskEnclosure& e = *enclosures_[static_cast<size_t>(enclosure)];
      if (spin_down_allowed_[static_cast<size_t>(enclosure)] &&
          e.EligibleForSpinDown(sim_->Now())) {
        if (e.PowerOff(sim_->Now())) {
          for (storage::StorageObserver* obs : observers_) {
            obs->OnPowerStateChange(enclosure, sim_->Now(),
                                    storage::PowerState::kOff);
          }
        }
      }
    });
  }

  sim::Simulator* sim_;
  storage::StorageConfig config_;
  std::vector<std::unique_ptr<storage::DiskEnclosure>> enclosures_;
  std::vector<bool> spin_down_allowed_;
  std::vector<storage::StorageObserver*> observers_;
};

}  // namespace ecostore::legacy

#endif  // ECOSTORE_BENCH_LEGACY_SPINDOWN_H_
