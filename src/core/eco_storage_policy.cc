#include "core/eco_storage_policy.h"

#include <algorithm>

#include "common/logging.h"
#include "telemetry/profile/profiler.h"
#include "telemetry/recorder.h"

namespace ecostore::core {

void EcoStoragePolicy::Start(const storage::StorageSystem& system,
                             policies::PolicyActuator* actuator) {
  function_ = std::make_unique<PowerManagementFunction>(config_, system);
  // The classifier folds the period analysis into ingest through the
  // monitor's logical I/O stream, so period ends only finalise
  // (DESIGN.md §13). Without that stream the method has nothing to
  // classify: it never plans, and no enclosure ever spins down.
  if (actuator->AttachLogicalIoSink(function_->classifier())) {
    actuator_ = actuator;
    function_->classifier()->BeginPeriod(actuator->Now());
  } else {
    ECOSTORE_LOG(kError) << "proposed: the runtime cannot attach a logical "
                            "I/O sink; the method sees no I/O and will not "
                            "plan";
    function_.reset();
  }
  current_period_ = config_.initial_period;
  period_start_ = actuator->Now();
  is_hot_.assign(static_cast<size_t>(system.num_enclosures()), true);
  cold_power_on_counts_.assign(
      static_cast<size_t>(system.num_enclosures()), 0);
  // Until the first plan exists every enclosure is treated as hot: no
  // spin-down (the method needs one observation period before acting).
  for (int e = 0; e < system.num_enclosures(); ++e) {
    actuator->SetSpinDownAllowed(static_cast<EnclosureId>(e), false);
  }
}

SimDuration EcoStoragePolicy::OnPeriodEnd(
    const monitor::MonitorSnapshot& snapshot,
    const storage::StorageSystem& system,
    policies::PolicyActuator* actuator) {
  if (function_ == nullptr) return current_period_;  // no sink (Start)
  last_plan_ = function_->Run(snapshot, system, current_period_);
  // The engine resets the application monitor right after this hook
  // returns, both at Now(): no record can arrive in between, so the
  // classifier's next period aligns exactly with the monitor's.
  function_->classifier()->BeginPeriod(actuator->Now());
  placement_determinations_++;
  pattern_history_.push_back(last_plan_.classification->pattern_counts);

  // Publish the plan epoch — 1-based, so epoch 0 means "no plan yet" —
  // and the per-item pattern table *before* enacting anything, so every
  // action the plan triggers (flushes, preloads, spin-downs and the I/O
  // they cause) is tagged with the plan that decided it.
  const int32_t plan_id = static_cast<int32_t>(placement_determinations_);
  // The classifier's pattern table (indexed by item id, refreshed by the
  // Finalize inside Run) is exactly the PublishPlan payload — no
  // per-period rebuild.
  actuator->PublishPlan(plan_id, function_->classifier()->patterns());

  // Enact the plan. Migrations first request P0/P1/P2 evictions, then P3
  // consolidations (the planner already ordered them; paper §V-A).
  {
    telemetry::profile::ScopedPhase migrate_span(
        telemetry::profile::Phase::kMigrate,
        static_cast<int64_t>(last_plan_.migrations.size()));
    for (const Migration& mig : last_plan_.migrations) {
      actuator->RequestMigration(mig.item, mig.to);
    }
  }
  // Items that were selected last period and saw no conflicting traffic
  // stay selected (paper §V-C: already-preloaded items are kept). This
  // damps churn when an item merely went quiet (P0) for one period.
  auto still_cold_non_p3 = [&](DataItemId item) {
    const auto& items = last_plan_.classification->items;
    if (item < 0 || static_cast<size_t>(item) >= items.size()) return false;
    if (items[static_cast<size_t>(item)].pattern == IoPattern::kP3) {
      return false;
    }
    EnclosureId enc = system.virtualization().EnclosureOf(item);
    return static_cast<size_t>(enc) < last_plan_.partition.is_hot.size() &&
           !last_plan_.partition.IsHot(enc);
  };

  {
  telemetry::profile::ScopedPhase flush_span(
      telemetry::profile::Phase::kFlush,
      static_cast<int64_t>(last_plan_.cache.write_delay.size() +
                           last_plan_.cache.preload.size()));
  // The carried selection lives in a sorted id vector — assigning from a
  // hash set would bake stdlib-dependent iteration order into persistent
  // policy state — and every merge below reuses member scratch, so a
  // steady-state period allocates nothing.
  wd_fresh_scratch_.assign(last_plan_.cache.write_delay.begin(),
                           last_plan_.cache.write_delay.end());
  std::sort(wd_fresh_scratch_.begin(), wd_fresh_scratch_.end());
  wd_carry_scratch_.clear();
  for (DataItemId item : prev_write_delay_) {
    if (still_cold_non_p3(item)) wd_carry_scratch_.push_back(item);
  }
  prev_write_delay_.clear();
  std::set_union(wd_fresh_scratch_.begin(), wd_fresh_scratch_.end(),
                 wd_carry_scratch_.begin(), wd_carry_scratch_.end(),
                 std::back_inserter(prev_write_delay_));
  wd_actuator_scratch_.clear();
  wd_actuator_scratch_.insert(prev_write_delay_.begin(),
                              prev_write_delay_.end());
  actuator->SetWriteDelayItems(wd_actuator_scratch_);

  // Preload keeps enact order: fresh picks first (planner density order —
  // the order the preload I/O issues in), surviving carryover after.
  preload_scratch_ = last_plan_.cache.preload;
  int64_t budget = function_->config().preload_area_bytes;
  fresh_ids_scratch_.clear();
  for (const auto& [item, size] : preload_scratch_) {
    fresh_ids_scratch_.push_back(item);
    budget -= size;
  }
  std::sort(fresh_ids_scratch_.begin(), fresh_ids_scratch_.end());
  for (const auto& [item, size] : prev_preload_) {
    if (std::binary_search(fresh_ids_scratch_.begin(),
                           fresh_ids_scratch_.end(), item) ||
        !still_cold_non_p3(item) || size > budget) {
      continue;
    }
    preload_scratch_.emplace_back(item, size);
    budget -= size;
  }
  prev_preload_ = preload_scratch_;
  actuator->SetPreloadItems(preload_scratch_);
  for (size_t e = 0; e < last_plan_.spin_down_allowed.size(); ++e) {
    actuator->SetSpinDownAllowed(static_cast<EnclosureId>(e),
                                 last_plan_.spin_down_allowed[e]);
  }
  }  // flush_span

  // Decision audit: one event per active item with the classification
  // *reason* (long intervals, read ratio, I/O sequences) and the actions
  // the enacted plan took, plus the partition and period adaptation.
  telemetry::Recorder* recorder = actuator->telemetry();
  if (telemetry::Wants(recorder, telemetry::kClassDecision)) {
    // Sorted scratch vectors instead of per-period hash tables: the
    // lookups below are binary searches over id-sorted ranges.
    migration_target_scratch_.clear();
    for (const Migration& mig : last_plan_.migrations) {
      migration_target_scratch_.emplace_back(mig.item, mig.to);
    }
    std::sort(migration_target_scratch_.begin(),
              migration_target_scratch_.end());
    preload_ids_scratch_.clear();
    for (const auto& [item, size] : preload_scratch_) {
      preload_ids_scratch_.push_back(item);
    }
    std::sort(preload_ids_scratch_.begin(), preload_ids_scratch_.end());
    auto migration_of = [&](DataItemId item) -> const EnclosureId* {
      auto it = std::lower_bound(
          migration_target_scratch_.begin(), migration_target_scratch_.end(),
          item,
          [](const std::pair<DataItemId, EnclosureId>& a, DataItemId b) {
            return a.first < b;
          });
      if (it == migration_target_scratch_.end() || it->first != item) {
        return nullptr;
      }
      return &it->second;
    };
    SimTime now = actuator->Now();
    for (const ItemClassification& cls : last_plan_.classification->items) {
      telemetry::DecisionPayload d;
      d.item = cls.item;
      d.pattern = static_cast<uint8_t>(cls.pattern);
      const EnclosureId* mig = migration_of(cls.item);
      if (mig != nullptr) d.actions |= telemetry::kActionMigrate;
      if (std::binary_search(prev_write_delay_.begin(),
                             prev_write_delay_.end(), cls.item)) {
        d.actions |= telemetry::kActionWriteDelay;
      }
      if (std::binary_search(preload_ids_scratch_.begin(),
                             preload_ids_scratch_.end(), cls.item)) {
        d.actions |= telemetry::kActionPreload;
      }
      if (cls.total_ios() == 0 && d.actions == 0) continue;  // untouched
      d.enclosure = static_cast<int16_t>(
          mig != nullptr ? *mig
                         : system.virtualization().EnclosureOf(cls.item));
      d.long_intervals = static_cast<int32_t>(cls.long_interval_count);
      d.io_sequences = static_cast<int32_t>(cls.io_sequences);
      d.read_permille = cls.total_ios() > 0
                            ? static_cast<int32_t>(cls.reads * 1000 /
                                                   cls.total_ios())
                            : 0;
      d.plan = plan_id;
      d.total_ios = cls.total_ios();
      recorder->Record(telemetry::MakeDecisionEvent(now, d));
    }
    uint64_t hot_mask = 0;
    const auto& hot = last_plan_.partition.is_hot;
    for (size_t e = 0; e < hot.size() && e < 64; ++e) {
      if (hot[e]) hot_mask |= uint64_t{1} << e;
    }
    recorder->Record(telemetry::MakeHotColdEvent(
        now, hot_mask, last_plan_.partition.n_hot,
        static_cast<int32_t>(hot.size())));
    recorder->Record(telemetry::MakeAdaptEvent(
        now, current_period_, last_plan_.next_period,
        last_plan_.classification->mean_long_interval));
  }

  is_hot_ = last_plan_.partition.is_hot;
  std::fill(cold_power_on_counts_.begin(), cold_power_on_counts_.end(), 0);
  period_start_ = actuator->Now();
  triggered_this_period_ = false;
  current_period_ = last_plan_.next_period;
  ECOSTORE_LOG(kDebug) << "period plan: n_hot=" << last_plan_.partition.n_hot
                       << " migrations=" << last_plan_.migrations.size()
                       << " wd=" << last_plan_.cache.write_delay.size()
                       << " preload=" << last_plan_.cache.preload.size()
                       << " next=" << FormatDuration(current_period_);
  return current_period_;
}

void EcoStoragePolicy::OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                                    SimDuration gap) {
  if (!config_.enable_pattern_change_triggers || triggered_this_period_ ||
      actuator_ == nullptr) {
    return;
  }
  // Rate limit: a re-plan window shorter than the minimum period cannot
  // classify patterns reliably (an ordinary long episode would look P3).
  if (at - period_start_ < config_.min_period) return;
  // Paper §V-D condition i: a hot enclosure's I/O interval exceeded the
  // break-even time — the pattern shifted; re-plan now.
  if (static_cast<size_t>(enclosure) < is_hot_.size() &&
      is_hot_[static_cast<size_t>(enclosure)] && gap > config_.break_even) {
    triggered_this_period_ = true;
    actuator_->TriggerImmediatePeriodEnd();
  }
}

void EcoStoragePolicy::OnPowerOn(EnclosureId enclosure, SimTime at) {
  if (!config_.enable_pattern_change_triggers || triggered_this_period_ ||
      actuator_ == nullptr) {
    return;
  }
  if (static_cast<size_t>(enclosure) >= is_hot_.size() ||
      is_hot_[static_cast<size_t>(enclosure)]) {
    return;
  }
  // Paper §V-D condition ii: a cold enclosure powered on more than
  // m = 2 * (t_c - t_e) / l_b times since the period started. Evaluated
  // only once the period is at least one break-even old, so that a single
  // routine wake right after a period boundary does not force a re-plan.
  int64_t count = ++cold_power_on_counts_[static_cast<size_t>(enclosure)];
  if (at - period_start_ < config_.min_period) return;
  double m = 2.0 * static_cast<double>(at - period_start_) /
             static_cast<double>(config_.break_even);
  if (static_cast<double>(count) > m) {
    triggered_this_period_ = true;
    actuator_->TriggerImmediatePeriodEnd();
  }
}

}  // namespace ecostore::core
