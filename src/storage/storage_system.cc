#include "storage/storage_system.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/logging.h"

namespace ecostore::storage {

StorageSystem::StorageSystem(sim::Simulator* simulator,
                             const StorageConfig& config,
                             const DataItemCatalog* catalog)
    : sim_(simulator),
      config_(config),
      catalog_(catalog),
      cache_(config.cache),
      virt_(catalog, config.num_enclosures, config.enclosure.capacity_bytes) {
  assert(simulator != nullptr);
  assert(catalog != nullptr);
}

Status StorageSystem::Init() {
  ECOSTORE_RETURN_NOT_OK(config_.Validate());
  enclosures_.clear();
  for (int i = 0; i < config_.num_enclosures; ++i) {
    enclosures_.push_back(std::make_unique<DiskEnclosure>(
        static_cast<EnclosureId>(i), config_.enclosure));
  }
  spin_down_allowed_.assign(static_cast<size_t>(config_.num_enclosures),
                            false);
  spin_down_timers_.assign(static_cast<size_t>(config_.num_enclosures),
                           SpinDownTimer{});
  return virt_.PlaceInitial();
}

void StorageSystem::NotifyPhysicalIo(const trace::PhysicalIoRecord& rec) {
  if (observer_ != nullptr) observer_->OnPhysicalIo(rec);
}

void StorageSystem::NotifyIdleGap(EnclosureId enclosure, SimTime at,
                                  SimDuration gap) {
  if (observer_ != nullptr) observer_->OnIdleGapEnd(enclosure, at, gap);
}

void StorageSystem::NotifyPowerState(EnclosureId enclosure, SimTime at,
                                     PowerState state) {
  if (observer_ != nullptr) observer_->OnPowerStateChange(enclosure, at, state);
}

void StorageSystem::RequestSpinDownCheck(EnclosureId enclosure) {
  const DiskEnclosure& enc = *enclosures_[static_cast<size_t>(enclosure)];
  SimTime when = std::max(sim_->Now(), enc.busy_until()) +
                 config_.enclosure.spindown_timeout;
  SpinDownTimer& timer = spin_down_timers_[static_cast<size_t>(enclosure)];
  timer.pending.push_back({when, sim_->ReserveSeq()});
  if (!timer.armed) ArmSpinDownTimer(enclosure);
}

void StorageSystem::ArmSpinDownTimer(EnclosureId enclosure) {
  SpinDownTimer& timer = spin_down_timers_[static_cast<size_t>(enclosure)];
  const SpinDownTimer::Key& head = timer.pending.front();
  timer.armed = true;
  timer.armed_seq = head.seq;
  sim_->ScheduleAt(head.when, head.seq,
                   [this, enclosure] { OnSpinDownTimer(enclosure); });
}

void StorageSystem::OnSpinDownTimer(EnclosureId enclosure) {
  SpinDownTimer& timer = spin_down_timers_[static_cast<size_t>(enclosure)];
  timer.armed = false;
  if (timer.pending.empty()) return;
  if (timer.pending.front().seq != timer.armed_seq) {
    // The armed check was dropped by a later submission; the head is due
    // strictly after now (DESIGN.md §8).
    ArmSpinDownTimer(enclosure);
    return;
  }
  timer.pending.erase(timer.pending.begin());
  if (!timer.pending.empty()) ArmSpinDownTimer(enclosure);

  DiskEnclosure& e = *enclosures_[static_cast<size_t>(enclosure)];
  if (spin_down_allowed_[static_cast<size_t>(enclosure)] &&
      e.EligibleForSpinDown(sim_->Now())) {
    if (e.PowerOff(sim_->Now())) {
      if (telemetry::Wants(telemetry_, telemetry::kClassPower)) {
        // PowerOff already caught the energy integrator up to now, so
        // this Energy() read is a pure counter load — the probe cannot
        // perturb the replay's floating-point stream.
        telemetry_->Record(telemetry::MakePowerEvent(
            sim_->Now(), enclosure, static_cast<uint8_t>(PowerState::kOff),
            0, e.Energy(sim_->Now()), plan_epoch_));
      }
      NotifyPowerState(enclosure, sim_->Now(), PowerState::kOff);
    }
  }
}

SimTime StorageSystem::SubmitPhysicalBulk(EnclosureId enclosure,
                                          int64_t n_ios, int64_t bytes,
                                          IoType type, bool sequential,
                                          int64_t block_hint,
                                          DataItemId item) {
  DiskEnclosure& enc = *enclosures_.at(static_cast<size_t>(enclosure));
  SimTime now = sim_->Now();
  DiskEnclosure::IoGrant grant = enc.SubmitIo(now, n_ios, bytes, type,
                                              sequential);
  // busy_until just moved past every pending check's idle deadline, so
  // none of them can succeed any more. Dropped before the observers run:
  // a nested submission from OnPhysicalIo requests its own check.
  spin_down_timers_[static_cast<size_t>(enclosure)].pending.clear();
  if (grant.powered_on) {
    if (telemetry::Wants(telemetry_, telemetry::kClassPower)) {
      // SubmitIo caught the integrator up to now; Energy() is a pure read.
      telemetry_->Record(telemetry::MakePowerEvent(
          now, enclosure, static_cast<uint8_t>(PowerState::kSpinningUp),
          config_.enclosure.spinup_time, enc.Energy(now), plan_epoch_));
    }
    NotifyPowerState(enclosure, now, PowerState::kSpinningUp);
  }
  if (grant.idle_gap_before >= config_.idle_gap_notify_floor) {
    if (telemetry::Wants(telemetry_, telemetry::kClassPower)) {
      telemetry_->Record(
          telemetry::MakeIdleGapEvent(now, enclosure, grant.idle_gap_before));
    }
    NotifyIdleGap(enclosure, now, grant.idle_gap_before);
  }
  trace::PhysicalIoRecord rec;
  rec.time = now;
  rec.enclosure = enclosure;
  rec.block = block_hint;
  rec.size = static_cast<int32_t>(std::min<int64_t>(
      bytes, std::numeric_limits<int32_t>::max()));
  rec.type = type;
  rec.sequential = sequential;
  if (telemetry::Wants(telemetry_, telemetry::kClassIoDetail)) {
    telemetry_->Record(telemetry::MakeCacheEvent(
        now, telemetry::EventKind::kPhysicalIo, item, enclosure,
        n_ios, bytes, plan_epoch_));
  }
  NotifyPhysicalIo(rec);
  if (spin_down_allowed_[static_cast<size_t>(enclosure)]) {
    RequestSpinDownCheck(enclosure);
  }
  return grant.completion;
}

void StorageSystem::ApplyFlushDemands(const std::vector<FlushDemand>& demands) {
  for (const FlushDemand& d : demands) {
    EnclosureId enc = virt_.EnclosureOf(d.item);
    if (telemetry::Wants(telemetry_, telemetry::kClassCache)) {
      telemetry_->Record(telemetry::MakeCacheEvent(
          sim_->Now(), telemetry::EventKind::kCacheFlush, d.item, enc,
          d.blocks, d.bytes, plan_epoch_));
    }
    SubmitPhysicalBulk(enc, std::max<int64_t>(1, d.blocks), d.bytes,
                       IoType::kWrite, /*sequential=*/true,
                       virt_.BaseBlock(d.item), d.item);
  }
}

StorageSystem::IoResult StorageSystem::SubmitLogicalIo(
    const trace::LogicalIoRecord& rec) {
  IoResult result;
  SimTime now = sim_->Now();
  telemetry::analysis::IoOutcome outcome =
      telemetry::analysis::IoOutcome::kHit;
  if (rec.is_read()) {
    StorageCache::ReadOutcome out =
        cache_.Read(rec.item, rec.offset, rec.size, &flush_scratch_);
    ApplyFlushDemands(flush_scratch_);
    result.cache_hit = out.fully_hit();
    result.latency = config_.cache.hit_latency;
    if (out.miss_blocks > 0) {
      EnclosureId enc = virt_.EnclosureOf(rec.item);
      if (latency_book_ != nullptr) {
        // state() catches the integrator up to now — the same CatchUp the
        // SubmitIo below would perform moments later, so the probe leaves
        // the replay's floating-point stream untouched.
        outcome = enclosures_[static_cast<size_t>(enc)]->state(now) ==
                          PowerState::kOn
                      ? telemetry::analysis::IoOutcome::kMiss
                      : telemetry::analysis::IoOutcome::kSpunDown;
      } else {
        outcome = telemetry::analysis::IoOutcome::kMiss;
      }
      if (telemetry::Wants(telemetry_, telemetry::kClassIoDetail)) {
        telemetry_->Record(telemetry::MakeCacheEvent(
            now, telemetry::EventKind::kCacheAdmit, rec.item, enc,
            out.miss_blocks, static_cast<int64_t>(rec.size), plan_epoch_));
      }
      // Small random reads issue one device I/O per logical request; large
      // (multi-block) transfers cost one device I/O per cache block.
      int64_t n_ios = std::max<int64_t>(1, out.miss_blocks);
      SimTime completion = SubmitPhysicalBulk(
          enc, n_ios, static_cast<int64_t>(rec.size), IoType::kRead,
          rec.sequential,
          virt_.BaseBlock(rec.item) + rec.offset / config_.cache.block_size,
          rec.item);
      result.latency = (completion - now) + config_.cache.hit_latency;
    }
  } else {
    cache_.Write(rec.item, rec.offset, rec.size, &flush_scratch_);
    // Writes complete in the battery-backed cache (paper §II-E.2); the
    // destage happens asynchronously and does not affect the caller.
    result.cache_hit = true;
    result.latency = config_.cache.hit_latency;
    ApplyFlushDemands(flush_scratch_);
  }
  if (latency_book_ != nullptr) {
    uint8_t pattern =
        rec.item >= 0 &&
                static_cast<size_t>(rec.item) < item_pattern_.size()
            ? item_pattern_[static_cast<size_t>(rec.item)]
            : telemetry::analysis::kPatternUnclassified;
    latency_book_->Record(pattern, outcome, result.latency);
  }
  return result;
}

void StorageSystem::BeginPlanEpoch(int32_t plan,
                                   const std::vector<uint8_t>& item_patterns) {
  plan_epoch_ = plan;
  item_pattern_.assign(item_patterns.begin(), item_patterns.end());
}

void StorageSystem::SetSpinDownAllowed(EnclosureId enclosure, bool allowed) {
  bool was = spin_down_allowed_.at(static_cast<size_t>(enclosure));
  spin_down_allowed_[static_cast<size_t>(enclosure)] = allowed;
  if (allowed && !was) {
    // Pending checks stay: one requested before the re-allow can still
    // find the enclosure idle long enough.
    RequestSpinDownCheck(enclosure);
  }
}

Status StorageSystem::SetWriteDelayItems(
    const std::unordered_set<DataItemId>& items) {
  const bool record = telemetry::Wants(telemetry_, telemetry::kClassCache);
  std::vector<DataItemId> entered;
  std::vector<StorageCache::WdChange> left;
  std::vector<FlushDemand> demands = cache_.SetWriteDelayItems(
      items, record ? &entered : nullptr, record ? &left : nullptr);
  if (record) {
    int64_t displaced_bytes = 0;
    for (const FlushDemand& d : demands) displaced_bytes += d.bytes;
    telemetry_->Record(telemetry::MakeCacheEvent(
        sim_->Now(), telemetry::EventKind::kWriteDelaySet, kInvalidDataItem,
        kInvalidEnclosure, static_cast<int64_t>(items.size()),
        displaced_bytes, plan_epoch_));
    // Per-item membership deltas (DESIGN.md §10): one event per item that
    // left (with its destaged dirty blocks) and per item that joined (with
    // its catalog size, so the ledger can estimate occupancy). Ordered by
    // item id.
    for (const StorageCache::WdChange& ch : left) {
      telemetry_->Record(telemetry::MakeCacheEvent(
          sim_->Now(), telemetry::EventKind::kWriteDelayFlush, ch.item,
          virt_.EnclosureOf(ch.item), ch.flushed_blocks, ch.flushed_bytes,
          plan_epoch_));
    }
    for (DataItemId item : entered) {
      telemetry_->Record(telemetry::MakeCacheEvent(
          sim_->Now(), telemetry::EventKind::kWriteDelayAdmit, item,
          virt_.EnclosureOf(item), 0, catalog_->item(item).size_bytes,
          plan_epoch_));
    }
  }
  ApplyFlushDemands(demands);
  return Status::OK();
}

Status StorageSystem::SetPreloadItems(
    const std::vector<std::pair<DataItemId, int64_t>>& items) {
  Result<std::vector<DataItemId>> to_load = cache_.SetPreloadItems(items);
  if (!to_load.ok()) return to_load.status();
  for (DataItemId item : to_load.value()) {
    const DataItem& meta = catalog_->item(item);
    EnclosureId enc = virt_.EnclosureOf(item);
    int64_t blocks = std::max<int64_t>(
        1, meta.size_bytes / config_.cache.block_size);
    if (telemetry::Wants(telemetry_, telemetry::kClassCache)) {
      telemetry_->Record(telemetry::MakeCacheEvent(
          sim_->Now(), telemetry::EventKind::kPreloadBegin, item, enc,
          blocks, meta.size_bytes, plan_epoch_));
    }
    SimTime completion =
        SubmitPhysicalBulk(enc, blocks, meta.size_bytes, IoType::kRead,
                           /*sequential=*/true, virt_.BaseBlock(item), item);
    int64_t size_bytes = meta.size_bytes;
    // The done event keeps the plan the load was issued under, even if a
    // newer plan lands while the read is in flight.
    int32_t plan = plan_epoch_;
    sim_->ScheduleAt(completion, [this, item, enc, blocks, size_bytes, plan] {
      Status st = cache_.MarkPreloaded(item);
      if (telemetry::Wants(telemetry_, telemetry::kClassCache)) {
        // bytes < 0 marks a stale preload (the set changed in flight).
        telemetry_->Record(telemetry::MakeCacheEvent(
            sim_->Now(), telemetry::EventKind::kPreloadDone, item, enc,
            blocks, st.ok() ? size_bytes : -1, plan));
      }
      if (!st.ok()) {
        // The preload set changed while the load was in flight; the read
        // was wasted but harmless.
        ECOSTORE_LOG(kDebug) << "stale preload for item " << item;
      }
    });
  }
  return Status::OK();
}

Status StorageSystem::CommitItemMove(DataItemId item, EnclosureId target) {
  ECOSTORE_RETURN_NOT_OK(virt_.MoveItem(item, target));
  // Cached blocks now address the new enclosure; rewrite dirty ones there.
  std::vector<FlushDemand> demands = cache_.InvalidateItem(item);
  ApplyFlushDemands(demands);
  return Status::OK();
}

void StorageSystem::FinalizeRun() {
  ApplyFlushDemands(cache_.FlushAll());
  SimTime now = sim_->Now();
  for (auto& enc : enclosures_) {
    if (enc->served_ios() > 0 && enc->busy_until() <= now) {
      SimDuration gap = now - enc->last_busy_end();
      if (gap > 0) NotifyIdleGap(enc->id(), now, gap);
    }
  }
  // Cumulative per-component energy counters at the horizon. The harness
  // reads EnclosureEnergy() at this same `now` right after, so whichever
  // probe runs first performs the identical final CatchUp — the events
  // telescope exactly to the run's measured ExperimentMetrics energy.
  if (telemetry::Wants(telemetry_, telemetry::kClassPower)) {
    for (auto& enc : enclosures_) {
      telemetry_->Record(telemetry::MakeEnergyFinalEvent(
          now, enc->id(), enc->Energy(now), plan_epoch_));
    }
    telemetry_->Record(telemetry::MakeEnergyFinalEvent(
        now, kInvalidEnclosure, ControllerEnergy(), plan_epoch_));
  }
}

Joules StorageSystem::EnclosureEnergy() {
  Joules total = 0;
  for (auto& enc : enclosures_) {
    total += enc->Energy(sim_->Now());
  }
  return total;
}

Joules StorageSystem::ControllerEnergy() const {
  return EnergyOf(config_.controller.base_power, sim_->Now());
}

Joules StorageSystem::TotalEnergy() {
  return EnclosureEnergy() + ControllerEnergy();
}

}  // namespace ecostore::storage
