#ifndef ECOSTORE_TELEMETRY_ANALYSIS_INCREMENTAL_LEDGER_H_
#define ECOSTORE_TELEMETRY_ANALYSIS_INCREMENTAL_LEDGER_H_

// The energy-ledger walker (energy_ledger.h): folds the telemetry stream
// event-by-event so a running replay exposes a live energy ledger, and
// batch BuildLedger is the same fold over a whole stream followed by
// Snapshot(). tests/streaming_ledger_test.cc checks both against the
// frozen pre-fold batch ledger (bench/legacy_ledger.h), bitwise at every
// window boundary.
//
// Why a fold can match a batch walk (DESIGN.md §14). The only non-local
// step of the walk is ProbeWake, which inspects the same-timestamp
// neighborhood of a SpinningUp edge. The ledger therefore buffers the
// current same-timestamp group and runs the per-kind step over the group
// once a later-time event (or an AdvanceTo frontier) proves the group
// complete; ProbeWake's backward and forward scans are exactly a scan
// over that group. Every remaining output is a pure function of walker
// state plus the meta (plan tallies, advisory resolution,
// reconciliation), computed by Snapshot() on copies without disturbing
// the stream state. A frontier B never splits a timestamp group
// (frontiers are exclusive), so after AdvanceTo(B), Snapshot() ==
// BuildLedger(meta, {e : e.time < B}) field-for-field, doubles bitwise.
//
// The per-enclosure table is sized from meta.num_enclosures; events that
// name an enclosure outside it are ignored for every kind (parsed
// captures reject such ids, see CaptureTailParser).

#include <cstdint>
#include <unordered_map>
#include <map>
#include <vector>

#include "telemetry/analysis/energy_ledger.h"
#include "telemetry/stream_consumer.h"

namespace ecostore::telemetry::analysis {

/// \brief The ledger walker: Consume events in time-sorted drain order,
/// Snapshot at any frontier. Also a StreamConsumer so it can hang
/// directly off a StreamDispatcher.
class IncrementalEnergyLedger : public StreamConsumer {
 public:
  explicit IncrementalEnergyLedger(const ExportMeta& meta);

  /// Folds one event (must arrive in batch-drain order). Same-timestamp
  /// events are buffered until a later time or frontier completes them.
  void Consume(const Event& event);

  /// Declares that no event with time < `frontier` will follow; flushes
  /// the buffered group if it lies below the frontier.
  void AdvanceTo(SimTime frontier);

  /// Declares that no event at the buffered group's time will follow, and
  /// folds the group (BuildLedger's end of stream).
  void Flush();

  /// End of stream: flushes everything and installs the measured final
  /// energies into the meta so Snapshot() reconciles.
  void Finish(const StreamFinal& final);

  /// The full ledger for the events processed so far (call AdvanceTo or
  /// Flush first so the current group is included). Runs the tail passes
  /// — plan tallies, reconciliation, advisory resolution — on copies;
  /// O(off_windows + cache entries).
  EnergyLedger Snapshot() const;

  /// The exact-account running state without the tail passes: off-window
  /// list and cumulative credit/debit/actual/dwell, mispredicts, stream
  /// tallies. Advisory/reconciliation/plans fields are UNSET here — cheap
  /// enough to read per rolling window.
  const EnergyLedger& exact() const { return base_; }

  const ExportMeta& meta() const { return meta_; }
  bool finished() const { return finished_; }

  // StreamConsumer:
  void OnEvent(const Event& event) override { Consume(event); }
  void OnFrontier(SimTime frontier) override { AdvanceTo(frontier); }
  void OnFinish(const StreamFinal& final) override { Finish(final); }

 private:
  /// Per-enclosure walker state.
  struct EncState {
    bool off = false;
    SimTime off_since = 0;
    double off_joules = 0.0;
    int32_t off_plan = 0;
    int active_migrations = 0;
    bool has_final = false;
    double final_j = 0.0;
  };

  /// Unresolved advisory raw material, resolved by Snapshot().
  struct PendingCache {
    AdvisoryEntry::Kind kind;
    DataItemId item;
    EnclosureId enclosure;
    SimTime time;
    int32_t plan;
    int64_t bytes;
  };

  void ProcessGroup();
  void ProcessOne(size_t i);
  void ProbeWake(size_t i, EnclosureId enclosure, WakeCause* cause,
                 DataItemId* item) const;
  void CloseWindow(EnclosureId enclosure, SimTime end, double joules,
                   WakeCause cause, DataItemId wake_item, bool terminal);

  ExportMeta meta_;
  double idle_w_ = 0.0;
  double spin_extra_j_ = 0.0;

  std::vector<Event> group_;  ///< buffered maximal same-timestamp run
  SimTime group_time_ = 0;

  std::vector<EncState> enc_;
  bool controller_final_ = false;
  double controller_j_ = 0.0;
  std::map<int32_t, SimTime> plan_start_;
  std::unordered_map<DataItemId, DecisionPayload> last_decision_;
  std::vector<PendingCache> pending_;
  std::map<int32_t, SimTime> first_wd_in_plan_;

  EnergyLedger base_;  ///< exact account + stream tallies (see exact())
  bool finished_ = false;
};

}  // namespace ecostore::telemetry::analysis

#endif  // ECOSTORE_TELEMETRY_ANALYSIS_INCREMENTAL_LEDGER_H_
