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

#include "replay/experiment.h"
#include "replay/suite.h"
#include "telemetry/analysis/rolling_summary.h"
#include "telemetry/analysis/summary.h"
#include "telemetry/export.h"
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

/// Runs `job` once with a telemetry recorder and latency book attached
/// and writes `<base>.jsonl`, `<base>.power.csv` and `<base>.trace.json`.
/// When `summary_path` is non-empty, also writes the analyzer's summary
/// JSON there. `ring_capacity` sizes the recorder ring (events are 48
/// bytes, so even the 8M-entry ring the OLTP/DSS captures need is only
/// ~400 MB); a too-small ring drops the oldest events deterministically
/// but starves the ledger. When `rolling_path` is non-empty the run also
/// attaches the live streaming pipeline (StreamDispatcher + CaptureBuffer
/// + RollingSummary): per-window progress lines go to stdout and the
/// append-only rolling-summary JSONL (tailable via `eco_report tail`) is
/// written to `rolling_path`, with `rolling_window_us` windows (0 = 1
/// minute). When `profile_base` is non-empty the run also attaches the
/// wall-clock phase profiler and writes `<profile_base>.profile.jsonl` +
/// `.profile.trace.json` — a second, real-time clock domain next to the
/// sim-time trace, correlated by period index. Returns a process exit
/// code (0 on success) so bench mains can propagate it.
inline int CaptureTelemetry(const std::string& base, replay::ExperimentJob job,
                            const std::string& summary_path = "",
                            uint32_t ring_capacity = 1u << 21,
                            const std::string& rolling_path = "",
                            SimDuration rolling_window_us = 0,
                            const std::string& profile_base = "") {
  // Record every class including per-I/O detail: the ledger uses the
  // kPhysicalIo events to tie a mispredicted spin-down to the item whose
  // demand I/O forced the wake-up. The detail classes multiply event
  // volume, so the capture ring is larger than the default; a wrapped
  // ring would silently lose the oldest off-windows from the ledger.
  telemetry::Recorder::Options options;
  options.thread_buffer_capacity = ring_capacity;
  options.mask = telemetry::kClassAll;
  telemetry::Recorder recorder(options);
  telemetry::analysis::LatencyBook book;
  job.config.telemetry = &recorder;
  job.config.latency_book = &book;
  // --profile: the wall-clock phase profiler rides the same run. It only
  // reads the host clock and writes its own rings, so attaching it keeps
  // the replay bit-identical (the --check gate runs with one attached).
  telemetry::profile::Profiler profiler;
  if (!profile_base.empty()) job.config.profiler = &profiler;
  auto workload = job.workload();
  if (!workload.ok()) {
    std::fprintf(stderr, "telemetry capture workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  auto policy = job.policy();

  // --rolling-summary: attach the live streaming pipeline alongside the
  // capture. The dispatcher pumps the recorder every window, a
  // CaptureBuffer re-materializes the full capture (pumps reset the
  // rings), and a RollingSummary folds the stream into fixed windows,
  // printing progress lines and appending a tailable JSONL.
  const bool rolling_on = !rolling_path.empty();
  telemetry::StreamDispatcher dispatcher;
  telemetry::CaptureBuffer capture_buffer;
  std::unique_ptr<telemetry::analysis::RollingSummary> rolling;
  std::FILE* rolling_file = nullptr;
  if (rolling_on) {
    rolling_file = std::fopen(rolling_path.c_str(), "w");
    if (rolling_file == nullptr) {
      std::fprintf(stderr, "rolling summary: cannot write %s\n",
                   rolling_path.c_str());
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
    ropt.window_us = rolling_window_us > 0 ? rolling_window_us : kMinute;
    ropt.book = &book;
    ropt.jsonl = rolling_file;
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
    if (rolling_file != nullptr) std::fclose(rolling_file);
    std::fprintf(stderr, "telemetry capture run: %s\n",
                 metrics.status().ToString().c_str());
    return 1;
  }

  telemetry::ExportMeta meta =
      BuildCaptureMeta(metrics.value(), *experiment.system(), &book);
  std::vector<telemetry::Event> events =
      rolling_on ? capture_buffer.Take() : recorder.Drain();
  if (rolling_file != nullptr) {
    std::fclose(rolling_file);
    rolling_file = nullptr;
    std::printf("rolling summary: %lld windows (%.0fs each) -> %s\n",
                static_cast<long long>(rolling->windows_closed()),
                ToSeconds(job.config.stream_window_us),
                rolling_path.c_str());
  }
  Status st = telemetry::ExportAll(base, meta, events);
  if (!st.ok()) {
    std::fprintf(stderr, "telemetry export: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\ntelemetry: %zu events (%llu dropped) -> "
              "%s{.jsonl,.power.csv,.trace.json}\n",
              events.size(),
              static_cast<unsigned long long>(recorder.dropped()),
              base.c_str());
  if (recorder.dropped() > 0) {
    std::fprintf(stderr,
                 "telemetry: WARNING — %llu events dropped (ring wrapped); "
                 "the energy ledger will miss the oldest windows\n",
                 static_cast<unsigned long long>(recorder.dropped()));
  }
  if (!summary_path.empty()) {
    telemetry::analysis::Summary summary =
        telemetry::analysis::BuildSummary(meta, events);
    st = telemetry::analysis::WriteSummaryJson(summary_path, summary);
    if (!st.ok()) {
      std::fprintf(stderr, "telemetry summary: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("telemetry: summary -> %s (reconcile_rel_err=%.3g)\n",
                summary_path.c_str(), summary.reconcile_rel_err);
  }
  if (!profile_base.empty()) {
    telemetry::profile::ProfileMeta pmeta;
    pmeta.workload = metrics.value().workload;
    pmeta.policy = metrics.value().policy;
    pmeta.host_cpus = std::thread::hardware_concurrency();
    pmeta.wall_ns =
        static_cast<int64_t>(metrics.value().wall_seconds * 1e9);
    pmeta.dropped = profiler.dropped();
    std::vector<telemetry::profile::Span> spans = profiler.Drain();
    pmeta.spans = static_cast<int64_t>(spans.size());
    st = telemetry::profile::ExportProfile(profile_base, pmeta, spans);
    if (!st.ok()) {
      std::fprintf(stderr, "profile export: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("profile: %lld spans (%lld dropped) -> "
                "%s{.profile.jsonl,.profile.trace.json}\n",
                static_cast<long long>(pmeta.spans),
                static_cast<long long>(pmeta.dropped), profile_base.c_str());
    if (!telemetry::profile::Profiler::kEnabled) {
      std::printf("profile: NOTE — profiler compiled out "
                  "(ECOSTORE_PROFILE=OFF); exports are empty\n");
    }
  }
  if (!telemetry::Recorder::kEnabled) {
    std::printf("telemetry: NOTE — recorder compiled out "
                "(ECOSTORE_TELEMETRY=OFF); exports are empty\n");
  }
  return 0;
}

}  // namespace ecostore::bench

#endif  // ECOSTORE_BENCH_TELEMETRY_CAPTURE_H_
