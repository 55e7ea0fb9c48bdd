#ifndef ECOSTORE_CORE_POWER_MANAGEMENT_H_
#define ECOSTORE_CORE_POWER_MANAGEMENT_H_

#include <vector>

#include "common/status.h"
#include "core/cache_planner.h"
#include "core/hot_cold_planner.h"
#include "core/pattern_classifier.h"
#include "core/placement_planner.h"
#include "monitor/snapshot.h"
#include "storage/storage_system.h"

namespace ecostore::core {

/// Tunables of the proposed method (paper Table II) plus feature flags for
/// ablation studies.
struct PowerManagementConfig {
  /// Break-even time of the off/on cycle.
  SimDuration break_even = 52 * kSecond;

  /// O and S of the planners (max IOPS / capacity per enclosure).
  double max_enclosure_iops = 900.0;
  int64_t enclosure_capacity = 0;  // 0: take from the storage config

  /// Cache areas dedicated to the method.
  int64_t preload_area_bytes = 0;       // 0: take from the storage config
  int64_t write_delay_area_bytes = 0;   // 0: take from the storage config

  /// Monitoring-period adaptation (paper §IV-H). The floor equals the
  /// initial period (ten break-even times, Table II): shorter windows
  /// cannot distinguish P3 from a single long episode, which would make
  /// the placement chase transients. The floor also rate-limits the §V-D
  /// immediate re-plan triggers.
  double alpha = 1.2;
  SimDuration initial_period = 520 * kSecond;
  SimDuration min_period = 520 * kSecond;
  SimDuration max_period = 2 * kHour;

  /// Feature flags (all on for the full method; toggled by the ablation
  /// benchmark).
  bool enable_placement = true;
  bool enable_preload = true;
  bool enable_write_delay = true;
  bool enable_adaptive_period = true;
  bool enable_pattern_change_triggers = true;

  Status Validate() const;
};

/// The complete decision of one power-management invocation (the body of
/// paper Algorithm 1).
struct ManagementPlan {
  /// The period's classification, aliasing the classifier-owned table
  /// inside PowerManagementFunction (valid until its next Run — every
  /// in-repo consumer reads the plan before then). A pointer, not a
  /// copy: at fleet scale the table is the plan's only O(catalog) part,
  /// and copying it would put the catalog back into the period-end cost
  /// that the streaming classifier just removed (DESIGN.md §13).
  const ClassificationResult* classification = nullptr;
  HotColdPartition partition;
  std::vector<Migration> migrations;
  CachePlan cache;
  /// Per-enclosure spin-down permission (true = cold, may power off).
  std::vector<bool> spin_down_allowed;
  SimDuration next_period = 0;
};

/// \brief The power-management function (paper Algorithm 1): classify
/// patterns, split hot/cold, plan placement, pick write-delay and preload
/// items, configure power-off, and adapt the monitoring period.
///
/// Stateful across invocations: the streaming classifier carries the
/// period's ingest, and an item → enclosure cache follows the
/// virtualization layer's move journal so the P3-on-cold safety net and
/// the cache planner never walk the catalog (DESIGN.md §12). One
/// instance serves one experiment run.
class PowerManagementFunction {
 public:
  /// \param config method parameters; zero-valued capacity/cache fields
  ///        are filled from `system`'s configuration
  PowerManagementFunction(const PowerManagementConfig& config,
                          const storage::StorageSystem& system);

  const PowerManagementConfig& config() const { return config_; }

  /// Runs one management decision over a period snapshot. The period's
  /// I/O must already have reached classifier() through the monitor sink
  /// (DESIGN.md §13): Run only finalises it. The caller owns the
  /// BeginPeriod()/ingest lifecycle.
  ManagementPlan Run(const monitor::MonitorSnapshot& snapshot,
                     const storage::StorageSystem& system,
                     SimDuration current_period);

  /// The streaming classifier: policies attach it as the monitor's
  /// logical I/O sink and drive BeginPeriod() around Run().
  PatternClassifier* classifier() { return &classifier_; }

 private:
  PowerManagementConfig config_;
  PatternClassifier classifier_;
  HotColdPlanner hot_cold_;
  PlacementPlanner placement_;
  CachePlanner cache_;
  MonitoringPeriodController period_;

  // ---- enclosure-of cache (frontier-sized period ends) ----
  // Invariant between Run()s: final_enclosure_[i] is where item i ends
  // up under the *last emitted plan* (journal truth ⊕ that plan's
  // migrations), cached_is_p3_[i] mirrors the last classification, and
  // p3_final_count_[e] == #{i : cached_is_p3_[i] && final_enclosure_[i]
  // == e}. Each Run() reverts the optimistic migration overlay to the
  // move-journal truth (planned moves may not have committed), folds the
  // journal suffix and the classifier's dirty set, then overlays the new
  // plan — all frontier-sized work. The safety net then scans enclosures
  // (p3_final_count_ > 0), not items.
  bool have_enclosure_cache_ = false;
  std::vector<EnclosureId> final_enclosure_;  ///< item → post-plan enclosure
  std::vector<uint8_t> cached_is_p3_;         ///< item → pattern == P3
  std::vector<int64_t> p3_final_count_;       ///< enclosure → cached P3 items
  /// Consumed move_log() prefix.
  size_t enclosure_cache_cursor_ = 0;
  /// Items overlaid with the last plan's migration targets (reverted to
  /// journal truth at the next Run).
  std::vector<DataItemId> overlay_items_;
};

}  // namespace ecostore::core

#endif  // ECOSTORE_CORE_POWER_MANAGEMENT_H_
