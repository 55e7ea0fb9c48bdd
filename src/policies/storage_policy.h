#ifndef ECOSTORE_POLICIES_STORAGE_POLICY_H_
#define ECOSTORE_POLICIES_STORAGE_POLICY_H_

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "monitor/io_sink.h"
#include "monitor/snapshot.h"
#include "storage/storage_system.h"
#include "trace/io_record.h"

namespace ecostore::telemetry {
class Recorder;
}  // namespace ecostore::telemetry

namespace ecostore::policies {

/// \brief Actions a power-management policy can request. Implemented by
/// the experiment runtime, which executes them against the storage system
/// (migrations run in the background, throttled, so as not to disturb the
/// application; paper §V-A).
class PolicyActuator {
 public:
  virtual ~PolicyActuator() = default;

  virtual SimTime Now() const = 0;

  /// Queues a throttled background migration of a whole data item.
  virtual void RequestMigration(DataItemId item, EnclosureId target) = 0;

  /// Accounts a block-level migration of `bytes` from one enclosure to
  /// another without remapping any data item (used by physical-block-based
  /// baselines such as DDR).
  virtual void RequestBlockMigration(EnclosureId from, EnclosureId to,
                                     int64_t bytes) = 0;

  /// Replaces the write-delay item set (paper §V-B).
  virtual void SetWriteDelayItems(
      const std::unordered_set<DataItemId>& items) = 0;

  /// Replaces the preload set; loads run asynchronously (paper §V-C).
  virtual void SetPreloadItems(
      const std::vector<std::pair<DataItemId, int64_t>>& items) = 0;

  /// Permits or forbids automatic spin-down of an enclosure.
  virtual void SetSpinDownAllowed(EnclosureId enclosure, bool allowed) = 0;

  /// Ends the current monitoring period immediately (the pattern-change
  /// reaction of paper §V-D).
  virtual void TriggerImmediatePeriodEnd() = 0;

  /// Announces a new power-management plan before its actions are
  /// enacted. `plan_id` is 1-based (0 = no plan yet); `item_patterns` is
  /// indexed by DataItemId and holds each item's classified pattern
  /// (values >= telemetry::analysis::kNumPatternSlots = unclassified).
  /// The runtime uses it to tag telemetry events and split the latency
  /// book per plan epoch; the default ignores it.
  virtual void PublishPlan(int32_t plan_id,
                           const std::vector<uint8_t>& item_patterns) {
    (void)plan_id;
    (void)item_patterns;
  }

  /// Attaches `sink` to the Application Monitor's logical I/O stream so
  /// the policy can fold its period analysis into ingest (DESIGN.md §13).
  /// Returns true when the runtime supports streaming ingest; the default
  /// (false) means the policy sees no logical I/O stream and must not
  /// plan on one. Call from StoragePolicy::Start(); the sink must outlive
  /// the run.
  virtual bool AttachLogicalIoSink(monitor::LogicalIoSink* sink) {
    (void)sink;
    return false;
  }

  /// Event recorder for the run, or nullptr when telemetry is off.
  /// Policies gate recording with telemetry::Wants(actuator->telemetry(),
  /// class) so an uninstrumented run pays one null test.
  virtual telemetry::Recorder* telemetry() const { return nullptr; }
};

/// \brief Interface shared by the proposed method and all baselines.
///
/// The runtime calls Start() once, then OnPeriodEnd() at each monitoring
/// period boundary; the returned duration schedules the next period.
/// Event hooks fire between periods for policies that react online.
class StoragePolicy {
 public:
  virtual ~StoragePolicy() = default;

  virtual std::string name() const = 0;

  /// Length of the first monitoring period.
  virtual SimDuration initial_period() const = 0;

  /// Invoked once before the run; `actuator` stays valid for the run.
  virtual void Start(const storage::StorageSystem& system,
                     PolicyActuator* actuator) {
    (void)system;
    (void)actuator;
  }

  /// Invoked at the end of each monitoring period with the monitors'
  /// snapshot. Returns the length of the next period.
  virtual SimDuration OnPeriodEnd(const monitor::MonitorSnapshot& snapshot,
                                  const storage::StorageSystem& system,
                                  PolicyActuator* actuator) = 0;

  /// An enclosure idle interval ended (gap in device quiescence).
  virtual void OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                            SimDuration gap) {
    (void)enclosure;
    (void)at;
    (void)gap;
  }

  /// An enclosure began spinning up.
  virtual void OnPowerOn(EnclosureId enclosure, SimTime at) {
    (void)enclosure;
    (void)at;
  }

  /// A physical I/O batch was issued (for physical-behaviour baselines).
  virtual void OnPhysicalIo(const trace::PhysicalIoRecord& rec) {
    (void)rec;
  }

  /// Number of data-placement determinations executed so far (the paper's
  /// §VII-D CPU-cost metric).
  virtual int64_t placement_determinations() const { return 0; }

  /// Whether the policy reads the per-period logical trace buffer
  /// (snapshot.application->buffer()). Queried after Start(). The default
  /// is false: the replay engine retains no per-I/O record, and a policy
  /// that needs per-period aggregates folds them in during ingest through
  /// a sink attached with PolicyActuator::AttachLogicalIoSink() (logical
  /// I/O) or through OnPhysicalIo() (physical I/O), so period memory
  /// scales with activity, not I/O volume (DESIGN.md §13). Override to
  /// return true only if OnPeriodEnd() scans the buffer.
  virtual bool wants_logical_trace() const { return false; }
};

}  // namespace ecostore::policies

#endif  // ECOSTORE_POLICIES_STORAGE_POLICY_H_
