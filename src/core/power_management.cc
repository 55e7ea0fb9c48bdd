#include "core/power_management.h"

#include <cassert>
#include <utility>

#include "telemetry/profile/profiler.h"

namespace ecostore::core {

namespace {

PowerManagementConfig FillDefaults(PowerManagementConfig config,
                                   const storage::StorageSystem& system) {
  const storage::StorageConfig& sc = system.config();
  if (config.enclosure_capacity == 0) {
    config.enclosure_capacity = sc.enclosure.capacity_bytes;
  }
  if (config.preload_area_bytes == 0) {
    config.preload_area_bytes = sc.cache.preload_area_bytes;
  }
  if (config.write_delay_area_bytes == 0) {
    config.write_delay_area_bytes = sc.cache.write_delay_area_bytes;
  }
  return config;
}

}  // namespace

Status PowerManagementConfig::Validate() const {
  if (break_even <= 0) {
    return Status::InvalidArgument("break-even time must be positive");
  }
  if (max_enclosure_iops <= 0) {
    return Status::InvalidArgument("max enclosure IOPS must be positive");
  }
  if (alpha < 1.0) {
    return Status::InvalidArgument("alpha must be >= 1 (paper §IV-H)");
  }
  if (initial_period <= 0 || min_period <= 0 ||
      max_period < min_period) {
    return Status::InvalidArgument("invalid monitoring-period bounds");
  }
  return Status::OK();
}

PowerManagementFunction::PowerManagementFunction(
    const PowerManagementConfig& config,
    const storage::StorageSystem& system)
    : config_(FillDefaults(config, system)),
      classifier_(PatternClassifier::Options{config_.break_even,
                                             1 * kSecond}),
      hot_cold_(HotColdPlanner::Options{config_.max_enclosure_iops,
                                        config_.enclosure_capacity}),
      placement_(PlacementPlanner::Options{config_.max_enclosure_iops,
                                           config_.enclosure_capacity},
                 &hot_cold_),
      cache_(CachePlanner::Options{config_.preload_area_bytes,
                                   config_.write_delay_area_bytes}),
      period_(MonitoringPeriodController::Options{
          config_.alpha, config_.min_period, config_.max_period}) {}

ManagementPlan PowerManagementFunction::Run(
    const monitor::MonitorSnapshot& snapshot,
    const storage::StorageSystem& system, SimDuration current_period) {
  ManagementPlan plan;
  const storage::BlockVirtualization& virt = system.virtualization();

  // Algorithm 1 line: determine Logical I/O pattern of data items. The
  // interval analysis already happened as the I/Os arrived through the
  // monitor sink; the period end only finalises (DESIGN.md §13).
  assert(classifier_.period_start() == snapshot.period_start);
  const ClassificationResult* classification_ptr;
  {
    telemetry::profile::ScopedPhase classify_span(
        telemetry::profile::Phase::kClassifyFinalize);
    classification_ptr =
        &classifier_.Finalize(virt.catalog(), snapshot.period_end);
  }
  const ClassificationResult& classification = *classification_ptr;
  plan.classification = &classification;

  telemetry::profile::ScopedPhase plan_span(
      telemetry::profile::Phase::kPlan);

  // Determine hot/cold enclosures + data placement.
  if (config_.enable_placement) {
    PlacementPlan placement = placement_.Plan(classification, virt);
    plan.partition = std::move(placement.partition);
    plan.migrations = std::move(placement.migrations);
  } else {
    // Items stay put, so cold enclosures may still hold P3 items; the
    // safety net below keeps those powered.
    plan.partition = hot_cold_.Plan(classification, virt);
  }

  // The post-plan placement: live residency plus this plan's migrations.
  // Built the same way on every branch (placement, IOPS-guard retries,
  // the all-hot early return, placement disabled), and never from what
  // an earlier plan expected to commit — planned moves may not have.
  std::vector<EnclosureId>& final_enclosure = post_plan_enclosure_;
  final_enclosure.resize(classification.items.size());
  for (const ItemClassification& cls : classification.items) {
    final_enclosure[static_cast<size_t>(cls.item)] =
        virt.EnclosureOf(cls.item);
  }
  for (const Migration& mig : plan.migrations) {
    final_enclosure[static_cast<size_t>(mig.item)] = mig.to;
  }

  // Safety net: any P3 item that ends up on a cold enclosure (pinned, or
  // unplaceable) forces that enclosure hot — powering it off would stall
  // the application.
  for (const ItemClassification& cls : classification.items) {
    if (cls.pattern != IoPattern::kP3) continue;
    const EnclosureId enc = final_enclosure[static_cast<size_t>(cls.item)];
    if (!plan.partition.IsHot(enc)) {
      plan.partition.is_hot[static_cast<size_t>(enc)] = true;
      plan.partition.n_hot++;
    }
  }

  // Determine write delay first, then preload (paper §IV-A rationale).
  CachePlan cache_plan =
      cache_.Plan(classification, plan.partition, final_enclosure);
  if (config_.enable_write_delay) {
    plan.cache.write_delay = std::move(cache_plan.write_delay);
  }
  if (config_.enable_preload) {
    plan.cache.preload = std::move(cache_plan.preload);
  }

  // Determine the length of the next monitoring period (paper §IV-H).
  plan.next_period = config_.enable_adaptive_period
                         ? period_.Next(classification, current_period)
                         : current_period;
  return plan;
}

}  // namespace ecostore::core
