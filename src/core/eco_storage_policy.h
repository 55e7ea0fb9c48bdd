#ifndef ECOSTORE_CORE_ECO_STORAGE_POLICY_H_
#define ECOSTORE_CORE_ECO_STORAGE_POLICY_H_

#include <array>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/power_management.h"
#include "policies/storage_policy.h"

namespace ecostore::core {

/// \brief The proposed application-collaborative power-saving method as a
/// runnable policy (paper §II-§V).
///
/// At each monitoring-period end it runs the PowerManagementFunction and
/// enacts the plan through the actuator: background migrations (paper
/// §V-A), write-delay and preload cache assignments (§V-B/C), spin-down
/// permission for cold enclosures only (§IV-G), and the adapted next
/// period (§IV-H). Between periods it watches for sudden I/O-pattern
/// changes (§V-D) and re-triggers the management function immediately.
class EcoStoragePolicy : public policies::StoragePolicy {
 public:
  explicit EcoStoragePolicy(const PowerManagementConfig& config)
      : config_(config) {}

  std::string name() const override { return "proposed"; }
  SimDuration initial_period() const override {
    return config_.initial_period;
  }

  void Start(const storage::StorageSystem& system,
             policies::PolicyActuator* actuator) override;

  SimDuration OnPeriodEnd(const monitor::MonitorSnapshot& snapshot,
                          const storage::StorageSystem& system,
                          policies::PolicyActuator* actuator) override;

  void OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                    SimDuration gap) override;
  void OnPowerOn(EnclosureId enclosure, SimTime at) override;

  int64_t placement_determinations() const override {
    return placement_determinations_;
  }

  /// High-water mark of the streaming classifier's running state in
  /// bytes (per-item states, P3 bucket pool, result rows, pattern
  /// table).
  size_t classifier_peak_state_bytes() const {
    return function_ != nullptr
               ? function_->classifier()->peak_state_bytes()
               : 0;
  }

  /// Pattern mix of each completed period (for the Fig. 6 bench and the
  /// §VI-C stability analysis).
  const std::vector<std::array<int64_t, kNumIoPatterns>>& pattern_history()
      const {
    return pattern_history_;
  }

  /// The most recent plan (inspection/testing).
  const ManagementPlan& last_plan() const { return last_plan_; }

  /// Always 0: the incremental re-plan path these counted is gone. They
  /// remain only because the benchmark harness (perfbench/harness.cc)
  /// still reads them.
  int64_t incremental_replans() const { return 0; }
  int64_t placements_skipped() const { return 0; }

 private:
  PowerManagementConfig config_;
  /// Null when the runtime could not attach a logical I/O sink (Start).
  std::unique_ptr<PowerManagementFunction> function_;
  /// Set only with a sink attached; the §V-D triggers need it.
  policies::PolicyActuator* actuator_ = nullptr;

  SimDuration current_period_ = 0;
  SimTime period_start_ = 0;
  bool triggered_this_period_ = false;

  /// Latest hot/cold view for the §V-D triggers.
  std::vector<bool> is_hot_;
  std::vector<int64_t> cold_power_on_counts_;

  /// Previous cache selections, kept sticky across periods (paper §V-C).
  /// prev_write_delay_ is maintained sorted by item id: persistent policy
  /// state must not depend on hash-set iteration order. prev_preload_
  /// keeps enact order (it drives the preload I/O sequence).
  std::vector<DataItemId> prev_write_delay_;
  std::vector<std::pair<DataItemId, int64_t>> prev_preload_;

  ManagementPlan last_plan_;
  int64_t placement_determinations_ = 0;
  std::vector<std::array<int64_t, kNumIoPatterns>> pattern_history_;

  /// Per-period scratch, member-owned so steady state allocates nothing.
  std::vector<DataItemId> wd_fresh_scratch_;
  std::vector<DataItemId> wd_carry_scratch_;
  std::unordered_set<DataItemId> wd_actuator_scratch_;
  std::vector<std::pair<DataItemId, int64_t>> preload_scratch_;
  std::vector<DataItemId> fresh_ids_scratch_;
  std::vector<DataItemId> preload_ids_scratch_;
  std::vector<std::pair<DataItemId, EnclosureId>> migration_target_scratch_;
};

}  // namespace ecostore::core

#endif  // ECOSTORE_CORE_ECO_STORAGE_POLICY_H_
