#include "replay/experiment.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/logging.h"

namespace ecostore::replay {

Experiment::Experiment(workload::Workload* workload,
                       policies::StoragePolicy* policy,
                       const ExperimentConfig& config)
    : workload_(workload), policy_(policy), config_(config) {
  config_.storage.num_enclosures = workload->info().num_enclosures;
}

Experiment::~Experiment() = default;

Result<ExperimentMetrics> Experiment::Run() {
  auto wall_start = std::chrono::steady_clock::now();
  horizon_ = config_.duration > 0 ? config_.duration
                                  : workload_->info().duration;
  if (horizon_ <= 0) {
    return Status::InvalidArgument("experiment duration must be positive");
  }

  system_ = std::make_unique<storage::StorageSystem>(
      &sim_, config_.storage, &workload_->catalog());
  ECOSTORE_RETURN_NOT_OK(system_->Init());
  migrations_ =
      std::make_unique<MigrationEngine>(&sim_, system_.get(),
                                        config_.migration);
  system_->SetObserver(this);
  system_->SetTelemetry(config_.telemetry);
  system_->SetLatencyBook(config_.latency_book);
  // Wall-clock profiling is bound per thread (always set, even to null,
  // so a run configured without a profiler masks any stale binding);
  // interior phases — classify-finalise, plan, migrate, flush — open
  // ScopedPhases from core/ without any plumbing through the policy API.
  telemetry::profile::ScopedThreadProfiler profile_bind(config_.profiler);

  metrics_ = ExperimentMetrics{};
  metrics_.workload = workload_->info().name;
  metrics_.policy = policy_->name();
  metrics_.duration = horizon_;

  workload_->Reset();
  period_index_ = 0;
  app_monitor_.SetSink(nullptr);
  app_monitor_.ResetPeriod(0);
  policy_->Start(*system_, this);
  // Trace capture is opt-in: unless the policy reads the per-period
  // buffer, the monitor retains no per-I/O record and period memory
  // scales with activity, not I/O volume.
  app_monitor_.SetCapture(policy_->wants_logical_trace());
  SchedulePeriodEnd(policy_->initial_period());

  std::unique_ptr<storage::PowerMeter> meter;
  if (config_.power_sample_interval > 0) {
    meter = std::make_unique<storage::PowerMeter>(
        system_.get(), config_.power_sample_interval);
    ECOSTORE_RETURN_NOT_OK(meter->Start());
  }

  // Streaming pump: one compare per record against the next window mark;
  // when the trace crosses it, the recorder drains into the dispatcher at
  // the largest window boundary at or below the record time. The pump
  // runs after the simulator has advanced to rec.time, so every event
  // below the frontier has been recorded and none can appear later (sim
  // time is monotonic) — the frontier contract of StreamDispatcher.
  telemetry::StreamDispatcher* stream =
      config_.stream != nullptr && config_.stream->has_consumers()
          ? config_.stream
          : nullptr;
  const SimDuration stream_window =
      config_.stream_window_us > 0 ? config_.stream_window_us : kMinute;
  SimTime next_stream_mark = stream != nullptr
                                 ? stream_window
                                 : std::numeric_limits<SimTime>::max();

  // The hot loop consumes the workload in batches (one virtual call per
  // kReplayBatch records instead of one per logical I/O) and only enters
  // RunUntil() when an event is actually due before the record — the
  // common no-event case advances the clock with an inlined store.
  batch_.clear();
  batch_.reserve(kReplayBatch);
  bool horizon_reached = false;
  while (!horizon_reached &&
         workload_->NextBatch(&batch_, kReplayBatch) > 0) {
    // One ingest span per batch (two clock reads per kReplayBatch
    // records). Period ends firing inside RunUntil nest under it, so the
    // analyzer's self-time subtraction attributes them correctly.
    telemetry::profile::ScopedPhase ingest_span(
        telemetry::profile::Phase::kIngest,
        static_cast<int64_t>(batch_.size()));
    for (const trace::LogicalIoRecord& rec : batch_) {
      if (rec.time >= horizon_) {
        horizon_reached = true;
        break;
      }
      // Fire everything due before this I/O (flushes, period ends,
      // spin-down checks, migration chunks).
      if (sim_.NextEventTime() > rec.time) {
        sim_.AdvanceTo(rec.time);
      } else {
        sim_.RunUntil(rec.time);
      }

      if (rec.time >= next_stream_mark) {
        telemetry::profile::ScopedPhase pump_span(
            telemetry::profile::Phase::kLedgerPump);
        const SimTime frontier = rec.time - rec.time % stream_window;
        stream->Pump(config_.telemetry, frontier);
        next_stream_mark = frontier + stream_window;
      }

      app_monitor_.Record(rec);
      storage::StorageSystem::IoResult result = system_->SubmitLogicalIo(rec);

      metrics_.logical_ios++;
      if (result.cache_hit) metrics_.cache_hit_ios++;
      int64_t latency_us = result.latency;
      metrics_.response_us.Add(latency_us);
      bool is_read = rec.is_read();
      if (is_read) {
        metrics_.logical_reads++;
        metrics_.read_response_us.Add(latency_us);
      }
      if (rec.tag != 0) {
        // Single probe: one node holds the read-response sum, the read
        // count and the first-issue/last-completion bracket.
        auto [it, inserted] = metrics_.tag_stats.try_emplace(rec.tag);
        ExperimentMetrics::TagStats& stats = it->second;
        if (inserted) stats.first_issue = rec.time;
        if (is_read) {
          stats.read_response_us_sum += static_cast<double>(latency_us);
          stats.reads++;
        }
        SimTime completion = rec.time + result.latency;
        if (completion > stats.last_completion) {
          stats.last_completion = completion;
        }
      }
    }
  }

  telemetry::profile::ScopedPhase finalize_span(
      telemetry::profile::Phase::kFinalize);
  sim_.RunUntil(horizon_);
  system_->FinalizeRun();

  // --- Final accounting ---
  metrics_.enclosure_energy = system_->EnclosureEnergy();
  metrics_.controller_energy = system_->ControllerEnergy();
  metrics_.avg_enclosure_power =
      AveragePower(metrics_.enclosure_energy, horizon_);
  metrics_.avg_controller_power =
      AveragePower(metrics_.controller_energy, horizon_);
  metrics_.avg_total_power =
      metrics_.avg_enclosure_power + metrics_.avg_controller_power;
  metrics_.avg_response_ms = metrics_.response_us.Mean() / 1000.0;
  metrics_.avg_read_response_ms =
      metrics_.read_response_us.Mean() / 1000.0;
  metrics_.migrated_bytes = migrations_->migrated_bytes();
  metrics_.item_migrations = migrations_->completed_item_moves();
  metrics_.block_migrations = migrations_->block_moves();
  metrics_.placement_determinations = policy_->placement_determinations();
  for (int e = 0; e < system_->num_enclosures(); ++e) {
    storage::DiskEnclosure& enc =
        system_->enclosure(static_cast<EnclosureId>(e));
    metrics_.spinups += enc.spinup_count();
    ExperimentMetrics::EnclosureStats stats;
    stats.energy = enc.Energy(sim_.Now());
    stats.served_ios = enc.served_ios();
    stats.spinups = enc.spinup_count();
    stats.utilization =
        horizon_ > 0 ? static_cast<double>(enc.active_time()) /
                           static_cast<double>(horizon_)
                     : 0.0;
    metrics_.per_enclosure.push_back(stats);
  }
  if (meter != nullptr) {
    meter->Stop();
    metrics_.power_samples = meter->samples();
  }
  sim::Simulator::Stats sim_stats = sim_.stats();
  metrics_.monitoring_periods = period_index_;
  metrics_.sim_events_executed = sim_stats.executed;
  metrics_.sim_events_cancelled = sim_stats.cancelled;
  metrics_.sim_peak_heap_depth =
      static_cast<int64_t>(sim_stats.peak_heap_depth);
  metrics_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Final streaming pump: drain the horizon-time events (kEnergyFinal et
  // al recorded by FinalizeRun) and hand consumers the measured energies.
  if (stream != nullptr) {
    telemetry::profile::ScopedPhase pump_span(
        telemetry::profile::Phase::kLedgerPump);
    stream->Pump(config_.telemetry, horizon_);
    telemetry::StreamFinal fin;
    fin.at = horizon_;
    fin.enclosure_energy_j = metrics_.enclosure_energy;
    fin.controller_energy_j = metrics_.controller_energy;
    fin.has_energy = true;
    stream->Finish(fin);
  }
  return metrics_;
}

void Experiment::SchedulePeriodEnd(SimDuration period) {
  period = std::max<SimDuration>(period, 1 * kSecond);
  period_event_ = sim_.ScheduleAfter(period, [this] { DoPeriodEnd(); });
}

void Experiment::DoPeriodEnd() {
  // Correlation id = period index: the span seq joins the wall-clock
  // track to this period's kPeriodBoundary event in the sim-time stream.
  telemetry::profile::ScopedCorrelation period_corr(
      static_cast<uint32_t>(period_index_));
  telemetry::profile::ScopedPhase period_span(
      telemetry::profile::Phase::kPeriodEnd);
  in_period_end_ = true;
  trigger_pending_ = false;
  monitor::MonitorSnapshot snapshot;
  snapshot.period_start = app_monitor_.period_start();
  snapshot.period_end = sim_.Now();
  snapshot.application = &app_monitor_;
  SimDuration next = policy_->OnPeriodEnd(snapshot, *system_, this);
  if (telemetry::Wants(config_.telemetry, telemetry::kClassPeriod)) {
    config_.telemetry->Record(telemetry::MakePeriodEvent(
        sim_.Now(), period_index_, snapshot.period_start, next));
  }
  if (telemetry::Wants(config_.telemetry, telemetry::kClassSim)) {
    sim::Simulator::Stats s = sim_.stats();
    config_.telemetry->Record(telemetry::MakeSimStatsEvent(
        sim_.Now(), static_cast<int64_t>(s.peak_heap_depth),
        static_cast<int64_t>(s.live_events),
        static_cast<int64_t>(s.tombstones), s.cancelled));
  }
  period_index_++;
  app_monitor_.ResetPeriod(sim_.Now());
  in_period_end_ = false;
  SchedulePeriodEnd(next);
}

void Experiment::OnPhysicalIo(const trace::PhysicalIoRecord& rec) {
  metrics_.physical_batches++;
  policy_->OnPhysicalIo(rec);
}

void Experiment::OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                              SimDuration gap) {
  metrics_.idle_gaps.push_back(gap);
  policy_->OnIdleGapEnd(enclosure, at, gap);
}

void Experiment::OnPowerStateChange(EnclosureId enclosure, SimTime at,
                                    storage::PowerState state) {
  if (state == storage::PowerState::kSpinningUp) {
    policy_->OnPowerOn(enclosure, at);
  }
}

void Experiment::RequestMigration(DataItemId item, EnclosureId target) {
  migrations_->RequestItemMove(item, target);
}

void Experiment::RequestBlockMigration(EnclosureId from, EnclosureId to,
                                       int64_t bytes) {
  migrations_->RequestBlockMove(from, to, bytes);
}

void Experiment::SetWriteDelayItems(
    const std::unordered_set<DataItemId>& items) {
  Status st = system_->SetWriteDelayItems(items);
  if (!st.ok()) {
    ECOSTORE_LOG(kWarn) << "SetWriteDelayItems: " << st.ToString();
  }
}

void Experiment::SetPreloadItems(
    const std::vector<std::pair<DataItemId, int64_t>>& items) {
  Status st = system_->SetPreloadItems(items);
  if (!st.ok()) {
    ECOSTORE_LOG(kWarn) << "SetPreloadItems: " << st.ToString();
  }
}

void Experiment::SetSpinDownAllowed(EnclosureId enclosure, bool allowed) {
  system_->SetSpinDownAllowed(enclosure, allowed);
}

void Experiment::PublishPlan(int32_t plan_id,
                             const std::vector<uint8_t>& item_patterns) {
  system_->BeginPlanEpoch(plan_id, item_patterns);
}

void Experiment::TriggerImmediatePeriodEnd() {
  if (in_period_end_ || trigger_pending_) return;
  trigger_pending_ = true;
  sim_.Cancel(period_event_);
  period_event_ = sim_.ScheduleAfter(0, [this] { DoPeriodEnd(); });
}

}  // namespace ecostore::replay
