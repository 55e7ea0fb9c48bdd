#ifndef ECOSTORE_STORAGE_STORAGE_SYSTEM_H_
#define ECOSTORE_STORAGE_STORAGE_SYSTEM_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "storage/block_virtualization.h"
#include "storage/data_item.h"
#include "storage/disk_enclosure.h"
#include "storage/storage_cache.h"
#include "storage/storage_config.h"
#include "telemetry/analysis/latency_histogram.h"
#include "telemetry/recorder.h"
#include "trace/io_record.h"

namespace ecostore::storage {

/// \brief Receives storage-level events. The Experiment is the one
/// observer of a run: it keeps the idle-gap and physical-I/O metrics and
/// forwards each event to the policy (whose §V-D trigger counts spin-ups).
class StorageObserver {
 public:
  virtual ~StorageObserver() = default;

  /// A physical I/O batch was submitted to an enclosure.
  virtual void OnPhysicalIo(const trace::PhysicalIoRecord& rec) { (void)rec; }

  /// An enclosure idle interval ended (a new submission arrived after
  /// `gap` of quiescence, or the run ended).
  virtual void OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                            SimDuration gap) {
    (void)enclosure;
    (void)at;
    (void)gap;
  }

  /// An enclosure changed power state at `at` (kSpinningUp on power-on
  /// initiation, kOff on power-off).
  virtual void OnPowerStateChange(EnclosureId enclosure, SimTime at,
                                  PowerState state) {
    (void)enclosure;
    (void)at;
    (void)state;
  }
};

/// \brief Facade over the whole simulated enterprise array: enclosures,
/// the controller cache, and the block-virtualization layer.
///
/// The application-facing entry point is SubmitLogicalIo(); internal
/// operations (cache destages, preloads, migration chunks) go through
/// SubmitPhysicalBulk(). Spin-down is automatic per enclosure after the
/// configured idle timeout, gated by a per-enclosure policy flag
/// (the power-management function enables it for cold enclosures only,
/// paper §IV-G).
class StorageSystem {
 public:
  struct IoResult {
    SimDuration latency = 0;
    bool cache_hit = false;
  };

  /// \param simulator event loop shared with the replayer (not owned)
  /// \param config array parameters; validated in Init()
  /// \param catalog workload data items (not owned; must outlive this)
  StorageSystem(sim::Simulator* simulator, const StorageConfig& config,
                const DataItemCatalog* catalog);

  /// Validates the config and lays items out on their initial enclosures.
  Status Init();

  /// Attaches (or detaches, with nullptr) the one observer of physical
  /// I/O, idle gaps and power transitions. Not owned.
  void SetObserver(StorageObserver* observer) { observer_ = observer; }

  /// Attaches (or detaches, with nullptr) the run's event recorder. The
  /// system does not own it; the caller keeps it alive across the run.
  void SetTelemetry(telemetry::Recorder* recorder) { telemetry_ = recorder; }
  telemetry::Recorder* telemetry() const { return telemetry_; }

  /// Attaches (or detaches, with nullptr) the per-run latency book that
  /// SubmitLogicalIo records service times into, split by the item's
  /// classified pattern and hit/miss/spun-down outcome. Independent of
  /// the event recorder; not owned.
  void SetLatencyBook(telemetry::analysis::LatencyBook* book) {
    latency_book_ = book;
  }

  /// Starts plan epoch `plan` (1-based; 0 = before the first plan) and
  /// replaces the per-item pattern table used to split the latency book.
  /// `item_patterns` is indexed by DataItemId; items beyond its size (or
  /// with values >= kNumPatternSlots) count as unclassified. Telemetry
  /// events recorded after this call carry `plan` as their epoch tag.
  void BeginPlanEpoch(int32_t plan, const std::vector<uint8_t>& item_patterns);

  /// Serves one application logical I/O through cache and enclosures.
  IoResult SubmitLogicalIo(const trace::LogicalIoRecord& rec);

  /// Submits an internal bulk I/O (destage, preload, migration chunk)
  /// directly to an enclosure. Returns the batch completion time. `item`
  /// (when known) is carried on the kPhysicalIo detail event so the
  /// energy ledger can tie a spin-up back to the item whose I/O forced it.
  SimTime SubmitPhysicalBulk(EnclosureId enclosure, int64_t n_ios,
                             int64_t bytes, IoType type, bool sequential,
                             int64_t block_hint = 0,
                             DataItemId item = kInvalidDataItem);

  /// Allows or forbids automatic spin-down for an enclosure. Enabling it
  /// arms the idle timer immediately when already idle.
  void SetSpinDownAllowed(EnclosureId enclosure, bool allowed);
  bool spin_down_allowed(EnclosureId enclosure) const {
    return spin_down_allowed_.at(static_cast<size_t>(enclosure));
  }

  /// Replaces the write-delay item set; destages displaced dirty blocks.
  Status SetWriteDelayItems(const std::unordered_set<DataItemId>& items);

  /// Replaces the preload set and performs the loads asynchronously
  /// (bulk sequential reads; items become cache-resident at completion).
  Status SetPreloadItems(
      const std::vector<std::pair<DataItemId, int64_t>>& items);

  /// Updates the mapping after an item's data has been transferred and
  /// rehomes any cached dirty blocks to the new enclosure.
  Status CommitItemMove(DataItemId item, EnclosureId target);

  /// Destages everything and reports final idle gaps; call at end of run.
  void FinalizeRun();

  DiskEnclosure& enclosure(EnclosureId id) {
    return *enclosures_.at(static_cast<size_t>(id));
  }
  int num_enclosures() const {
    return static_cast<int>(enclosures_.size());
  }
  const BlockVirtualization& virtualization() const { return virt_; }
  BlockVirtualization& virtualization() { return virt_; }
  const StorageCache& cache() const { return cache_; }
  const StorageConfig& config() const { return config_; }
  sim::Simulator* simulator() { return sim_; }

  /// Energy integrated across all enclosures up to now.
  Joules EnclosureEnergy();
  /// Controller energy (constant draw) up to now.
  Joules ControllerEnergy() const;
  /// Enclosures + controller.
  Joules TotalEnergy();

 private:
  void NotifyPhysicalIo(const trace::PhysicalIoRecord& rec);
  void NotifyIdleGap(EnclosureId enclosure, SimTime at, SimDuration gap);
  void NotifyPowerState(EnclosureId enclosure, SimTime at, PowerState state);

  /// Applies cache flush demands as bulk sequential writes.
  void ApplyFlushDemands(const std::vector<FlushDemand>& demands);

  /// Requests an idle-timeout spin-down check of `enclosure`, due one
  /// timeout after its queue drains. The check's seq is reserved now, so
  /// it keeps this FIFO place among same-time events even though it only
  /// enters the heap once it is the head.
  void RequestSpinDownCheck(EnclosureId enclosure);

  /// Puts the enclosure's head check key into the simulator's heap.
  void ArmSpinDownTimer(EnclosureId enclosure);

  /// Heap entry of an enclosure's spin-down timer fired: runs the check if
  /// its key is still the head, otherwise re-arms for the current head.
  void OnSpinDownTimer(EnclosureId enclosure);

  sim::Simulator* sim_;
  StorageConfig config_;
  const DataItemCatalog* catalog_;
  std::vector<std::unique_ptr<DiskEnclosure>> enclosures_;
  StorageCache cache_;
  BlockVirtualization virt_;
  std::vector<bool> spin_down_allowed_;

  /// Per-enclosure idle-check timer (DESIGN.md §8). `pending` holds the
  /// (when, seq) keys of the checks that can still succeed, in firing
  /// order; a physical submission clears it. At most one heap entry per
  /// enclosure exists (`armed`), keyed `armed_seq`: the head's, or an
  /// earlier key that was dropped since and re-arms for the head when it
  /// fires.
  struct SpinDownTimer {
    struct Key {
      SimTime when = 0;
      uint64_t seq = 0;
    };
    std::vector<Key> pending;
    uint64_t armed_seq = 0;
    bool armed = false;
  };
  std::vector<SpinDownTimer> spin_down_timers_;
  StorageObserver* observer_ = nullptr;
  telemetry::Recorder* telemetry_ = nullptr;
  telemetry::analysis::LatencyBook* latency_book_ = nullptr;

  /// Current power-management plan epoch (stamped into telemetry events)
  /// and the per-item pattern table it published.
  int32_t plan_epoch_ = 0;
  std::vector<uint8_t> item_pattern_;

  /// Reusable scratch for per-I/O flush demands: SubmitLogicalIo hands it
  /// to StorageCache::Read/Write and consumes it before returning, so the
  /// hot path allocates nothing once the vector's capacity has warmed up.
  std::vector<FlushDemand> flush_scratch_;
};

}  // namespace ecostore::storage

#endif  // ECOSTORE_STORAGE_STORAGE_SYSTEM_H_
