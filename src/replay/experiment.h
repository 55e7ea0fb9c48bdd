#ifndef ECOSTORE_REPLAY_EXPERIMENT_H_
#define ECOSTORE_REPLAY_EXPERIMENT_H_

#include <memory>

#include "common/result.h"
#include "monitor/application_monitor.h"
#include "policies/storage_policy.h"
#include "replay/metrics.h"
#include "replay/migration_engine.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"
#include "telemetry/profile/profiler.h"
#include "telemetry/stream_consumer.h"
#include "workload/workload.h"

namespace ecostore::replay {

/// Run parameters beyond the storage array itself.
struct ExperimentConfig {
  storage::StorageConfig storage;

  /// 0: run for the workload's full duration.
  SimDuration duration = 0;

  MigrationEngine::Options migration;

  /// Sampling interval for the wall power meter; 0 disables sampling.
  SimDuration power_sample_interval = 0;

  /// Event recorder for the run (not owned; may be nullptr). When set,
  /// the run binds it to the storage system, whose layers record into it,
  /// and emits period/sim events itself.
  telemetry::Recorder* telemetry = nullptr;

  /// Latency book the storage system records per-I/O service times into
  /// (not owned; may be nullptr). Independent of the event recorder so a
  /// run can collect latency histograms without paying for event capture.
  telemetry::analysis::LatencyBook* latency_book = nullptr;

  /// Streaming consumer fan-out (not owned; may be nullptr). When set
  /// alongside `telemetry`, the hot loop pumps the recorder into the
  /// dispatcher at every stream_window_us sim-time boundary the trace
  /// crosses, and once more at the horizon with the measured energies
  /// (StreamDispatcher::Finish). Pumps empty the recorder buffers, so runs
  /// that also want the full capture attach a telemetry::CaptureBuffer.
  telemetry::StreamDispatcher* stream = nullptr;

  /// Pump cadence / rolling-window length in sim time; <= 0 uses 1 min.
  SimDuration stream_window_us = 0;

  /// Wall-clock phase profiler (not owned; may be nullptr). When set,
  /// Run() binds it to the replay thread for its duration and the engine
  /// + period-end pipeline record phase spans (DESIGN.md §15). The
  /// profiler only ever reads the wall clock and writes its own buffers,
  /// so attaching one cannot change replay results (fingerprint-gated).
  telemetry::profile::Profiler* profiler = nullptr;
};

/// \brief The trace-replay harness (paper §VII-A.2 / Fig. 7): streams a
/// workload's logical I/O into the simulated array under the control of
/// one power-management policy and measures power, response times and
/// data movement.
///
/// One Experiment = one run; construct a fresh one per (workload, policy)
/// pair. The workload is Reset() at the start of Run(), so the same
/// workload object can be reused across runs and every policy sees the
/// identical trace.
class Experiment : public storage::StorageObserver,
                   public policies::PolicyActuator {
 public:
  Experiment(workload::Workload* workload, policies::StoragePolicy* policy,
             const ExperimentConfig& config);
  ~Experiment() override;

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Executes the run to completion and returns the measurements.
  Result<ExperimentMetrics> Run();

  // --- storage::StorageObserver ---
  void OnPhysicalIo(const trace::PhysicalIoRecord& rec) override;
  void OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                    SimDuration gap) override;
  void OnPowerStateChange(EnclosureId enclosure, SimTime at,
                          storage::PowerState state) override;

  // --- policies::PolicyActuator ---
  SimTime Now() const override { return sim_.Now(); }
  void RequestMigration(DataItemId item, EnclosureId target) override;
  void RequestBlockMigration(EnclosureId from, EnclosureId to,
                             int64_t bytes) override;
  void SetWriteDelayItems(
      const std::unordered_set<DataItemId>& items) override;
  void SetPreloadItems(
      const std::vector<std::pair<DataItemId, int64_t>>& items) override;
  void SetSpinDownAllowed(EnclosureId enclosure, bool allowed) override;
  void TriggerImmediatePeriodEnd() override;
  void PublishPlan(int32_t plan_id,
                   const std::vector<uint8_t>& item_patterns) override;
  bool AttachLogicalIoSink(monitor::LogicalIoSink* sink) override {
    app_monitor_.SetSink(sink);
    return true;
  }
  telemetry::Recorder* telemetry() const override {
    return config_.telemetry;
  }

  /// The storage system under test (valid during and after Run()).
  storage::StorageSystem* system() { return system_.get(); }

  /// The application monitor (inspection: trace capture mode, totals).
  const monitor::ApplicationMonitor& application_monitor() const {
    return app_monitor_;
  }

 private:
  void SchedulePeriodEnd(SimDuration period);
  void DoPeriodEnd();

  workload::Workload* workload_;
  policies::StoragePolicy* policy_;
  ExperimentConfig config_;

  sim::Simulator sim_;
  std::unique_ptr<storage::StorageSystem> system_;
  std::unique_ptr<MigrationEngine> migrations_;
  monitor::ApplicationMonitor app_monitor_;

  ExperimentMetrics metrics_;
  SimDuration horizon_ = 0;
  sim::EventId period_event_ = 0;
  int32_t period_index_ = 0;
  bool in_period_end_ = false;
  bool trigger_pending_ = false;

  /// Records pulled per Workload::NextBatch call in Run()'s hot loop.
  static constexpr size_t kReplayBatch = 256;
  /// Reused batch scratch; no allocation per batch in steady state.
  std::vector<trace::LogicalIoRecord> batch_;
};

}  // namespace ecostore::replay

#endif  // ECOSTORE_REPLAY_EXPERIMENT_H_
