#ifndef ECOSTORE_BENCH_TELEMETRY_CAPTURE_H_
#define ECOSTORE_BENCH_TELEMETRY_CAPTURE_H_

// The bench binaries' --telemetry=<base> implementation: one extra,
// fully instrumented run executed after the figure suite, so attaching
// the recorder cannot interleave with (or be blamed for perturbing) the
// numbers the figures report. The replay outcome itself is bit-identical
// with or without a recorder — `bench_micro --check` proves that by
// running every gate job with one attached.
//
// The capture is self-describing: the meta line carries the power model,
// cache sizes and the run's final measured energies, and the latency
// book recorded during the run is embedded as per-(pattern, outcome)
// histogram lines — `eco_report score <capture>.jsonl` reproduces the
// exact summary offline. `--telemetry-summary=<path>` additionally
// writes that summary JSON directly.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "replay/experiment.h"
#include "replay/suite.h"
#include "telemetry/analysis/rolling_summary.h"
#include "telemetry/analysis/summary.h"
#include "telemetry/export.h"
#include "telemetry/file_handle.h"
#include "telemetry/profile/profile_export.h"
#include "telemetry/profile/profiler.h"
#include "telemetry/recorder.h"
#include "telemetry/stream_consumer.h"

namespace ecostore::bench {

/// Copies the power / cache model out of a storage config (shared by the
/// post-run capture meta and the pre-run meta the live rolling consumer
/// needs before any energy is measured).
inline void FillPowerModel(telemetry::ExportMeta* meta,
                           const storage::StorageConfig& cfg) {
  meta->has_power_model = true;
  meta->idle_power_w = cfg.enclosure.idle_power;
  meta->active_power_w = cfg.enclosure.active_power;
  meta->off_power_w = cfg.enclosure.off_power;
  meta->spinup_power_w = cfg.enclosure.spinup_power;
  meta->controller_power_w = cfg.controller.base_power;
  meta->spinup_time_us = cfg.enclosure.spinup_time;
  meta->break_even_us = cfg.enclosure.BreakEvenTime();
  meta->spindown_timeout_us = cfg.enclosure.spindown_timeout;
  meta->cache_total_bytes = cfg.cache.total_bytes;
  meta->preload_area_bytes = cfg.cache.preload_area_bytes;
  meta->write_delay_area_bytes = cfg.cache.write_delay_area_bytes;
}

/// Fills the self-describing capture meta from a finished run: identity,
/// the power/cache model the analyzer prices decisions with, the final
/// measured energies it reconciles against, and the latency book.
inline telemetry::ExportMeta BuildCaptureMeta(
    const replay::ExperimentMetrics& metrics,
    const storage::StorageSystem& system,
    const telemetry::analysis::LatencyBook* book) {
  telemetry::ExportMeta meta;
  meta.workload = metrics.workload;
  meta.policy = metrics.policy;
  meta.num_enclosures = system.num_enclosures();
  meta.duration = metrics.duration;
  FillPowerModel(&meta, system.config());
  meta.enclosure_energy_j = metrics.enclosure_energy;
  meta.controller_energy_j = metrics.controller_energy;
  if (book != nullptr) {
    for (int p = 0; p < telemetry::analysis::kNumPatternSlots; ++p) {
      for (int o = 0; o < telemetry::analysis::kNumOutcomes; ++o) {
        const telemetry::analysis::LatencyHistogram& h =
            book->cell(static_cast<uint8_t>(p), static_cast<uint8_t>(o));
        if (h.count() == 0) continue;
        telemetry::LatencySlot slot;
        slot.pattern = static_cast<uint8_t>(p);
        slot.outcome = static_cast<uint8_t>(o);
        slot.hist = h;
        meta.latency.push_back(slot);
      }
    }
  }
  return meta;
}

/// Writes one run's spans to `<base>.profile.jsonl` and
/// `<base>.profile.trace.json` and prints the status line. `meta` names
/// the run (workload, policy, wall time); the host CPU and span counts
/// are filled here. Returns a process exit code (0 on success).
inline int WriteProfileCapture(
    const std::string& base, telemetry::profile::ProfileMeta meta,
    const std::vector<telemetry::profile::Span>& spans) {
  meta.host_cpus = static_cast<int>(std::thread::hardware_concurrency());
  meta.spans = spans.size();
  Status st = telemetry::profile::ExportProfile(base, meta, spans);
  if (!st.ok()) {
    std::fprintf(stderr, "profile export: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("profile: %zu spans -> %s{.profile.jsonl,.profile.trace.json}\n",
              spans.size(), base.c_str());
  return 0;
}

/// Runs `job` once with a telemetry recorder and latency book attached
/// and writes `<flags.telemetry_base>.jsonl`, `.power.csv` and
/// `.trace.json`; the recorder keeps every event of the run. With
/// `summary_path` it also writes the analyzer's summary JSON there. With
/// `rolling_path` the run also attaches the live streaming pipeline
/// (StreamDispatcher + CaptureBuffer + RollingSummary): per-window
/// progress lines go to stdout and the append-only rolling-summary JSONL
/// (tailable via `eco_report tail`) is written to `rolling_path`, with
/// `rolling_window` windows. With `profile_base` the run also attaches
/// the wall-clock phase profiler and writes
/// `<profile_base>.profile.jsonl` + `.profile.trace.json` — a second,
/// real-time clock domain next to the sim-time trace, correlated by
/// period index. Returns a process exit code (0 on success) so bench
/// mains can propagate it.
inline int CaptureTelemetry(const CaptureFlags& flags,
                            replay::ExperimentJob job) {
  const std::string& base = flags.telemetry_base;
  // Record every class including per-I/O detail: the ledger uses the
  // kPhysicalIo events to tie a mispredicted spin-down to the item whose
  // demand I/O forced the wake-up.
  telemetry::Recorder recorder(telemetry::kClassAll);
  telemetry::analysis::LatencyBook book;
  job.config.telemetry = &recorder;
  job.config.latency_book = &book;
  // --profile: the wall-clock phase profiler rides the same run. It only
  // reads the host clock and writes its own buffers, so attaching it keeps
  // the replay bit-identical (the --check gate runs with one attached).
  telemetry::profile::Profiler profiler;
  if (!flags.profile_base.empty()) job.config.profiler = &profiler;
  auto workload = job.workload();
  if (!workload.ok()) {
    std::fprintf(stderr, "telemetry capture workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  auto policy = job.policy();

  // --rolling-summary: attach the live streaming pipeline alongside the
  // capture. The dispatcher pumps the recorder every window, a
  // CaptureBuffer re-materializes the full capture (pumps empty the
  // recorder), and a RollingSummary folds the stream into fixed windows,
  // printing progress lines and appending a tailable JSONL.
  const bool rolling_on = !flags.rolling_path.empty();
  telemetry::StreamDispatcher dispatcher;
  telemetry::CaptureBuffer capture_buffer;
  std::unique_ptr<telemetry::analysis::RollingSummary> rolling;
  telemetry::FilePtr rolling_file;
  if (rolling_on) {
    rolling_file.reset(std::fopen(flags.rolling_path.c_str(), "w"));
    if (rolling_file == nullptr) {
      std::fprintf(stderr, "rolling summary: cannot write %s\n",
                   flags.rolling_path.c_str());
      return 1;
    }
    telemetry::ExportMeta pre_meta;
    pre_meta.workload = workload.value()->info().name;
    pre_meta.policy = policy->name();
    pre_meta.num_enclosures = workload.value()->info().num_enclosures;
    pre_meta.duration = job.config.duration > 0
                            ? job.config.duration
                            : workload.value()->info().duration;
    FillPowerModel(&pre_meta, job.config.storage);
    telemetry::analysis::RollingSummary::Options ropt;
    ropt.window_us = flags.rolling_window;
    ropt.book = &book;
    ropt.jsonl = rolling_file.get();
    ropt.progress = stdout;
    rolling = std::make_unique<telemetry::analysis::RollingSummary>(pre_meta,
                                                                    ropt);
    dispatcher.AddConsumer(&capture_buffer);
    dispatcher.AddConsumer(rolling.get());
    job.config.stream = &dispatcher;
    job.config.stream_window_us = ropt.window_us;
  }

  replay::Experiment experiment(workload.value().get(), policy.get(),
                                job.config);
  auto metrics = experiment.Run();
  if (!metrics.ok()) {
    std::fprintf(stderr, "telemetry capture run: %s\n",
                 metrics.status().ToString().c_str());
    return 1;
  }

  telemetry::ExportMeta meta =
      BuildCaptureMeta(metrics.value(), *experiment.system(), &book);
  std::vector<telemetry::Event> events =
      rolling_on ? capture_buffer.Take() : recorder.Drain();
  if (rolling_on) {
    Status st = telemetry::CloseWritten(std::move(rolling_file),
                                        flags.rolling_path);
    if (!st.ok()) {
      std::fprintf(stderr, "rolling summary: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("rolling summary: %lld windows (%.0fs each) -> %s\n",
                static_cast<long long>(rolling->windows_closed()),
                ToSeconds(job.config.stream_window_us),
                flags.rolling_path.c_str());
  }
  Status st = telemetry::ExportAll(base, meta, events);
  if (!st.ok()) {
    std::fprintf(stderr, "telemetry export: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\ntelemetry: %zu events -> %s{.jsonl,.power.csv,.trace.json}\n",
              events.size(), base.c_str());
  if (!flags.summary_path.empty()) {
    telemetry::analysis::Summary summary =
        telemetry::analysis::BuildSummary(meta, events);
    st = telemetry::analysis::WriteSummaryJson(flags.summary_path, summary);
    if (!st.ok()) {
      std::fprintf(stderr, "telemetry summary: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("telemetry: summary -> %s (reconcile_rel_err=%.3g)\n",
                flags.summary_path.c_str(), summary.reconcile_rel_err);
  }
  if (!flags.profile_base.empty()) {
    telemetry::profile::ProfileMeta pmeta;
    pmeta.workload = metrics.value().workload;
    pmeta.policy = metrics.value().policy;
    pmeta.wall_ns =
        static_cast<int64_t>(metrics.value().wall_seconds * 1e9);
    const int rc =
        WriteProfileCapture(flags.profile_base, pmeta, profiler.Drain());
    if (rc != 0) return rc;
  }
  return 0;
}

}  // namespace ecostore::bench

#endif  // ECOSTORE_BENCH_TELEMETRY_CAPTURE_H_
