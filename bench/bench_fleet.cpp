// Fleet-scale planning benchmark: the proposed policy end-to-end on the
// synthetic cloud block-storage workload (DESIGN.md §12, EXPERIMENTS.md).
// Default shape is 10,000 enclosures / 1,000,000 items — two orders of
// magnitude past the paper's testbed — exercising the indexed planner
// structures and the streaming classifier at the scale they were built
// for. ECOSTORE_QUICK=1 shrinks to a 120-enclosure smoke fleet
// (the CI capture gate's configuration).

#include <cstdio>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "bench/telemetry_capture.h"
#include "core/eco_storage_policy.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/cloud_block_workload.h"

using namespace ecostore;  // NOLINT

namespace {

workload::CloudBlockConfig FleetConfig(int argc, char** argv) {
  workload::CloudBlockConfig wl;
  wl.num_enclosures = bench::QuickMode() ? 120 : 10000;
  const std::string enc = bench::ParseFlagValue(argc, argv, "--enclosures=");
  if (!enc.empty()) {
    wl.num_enclosures = bench::ParseIntOrExit("--enclosures", enc);
  }
  wl.volumes_per_enclosure = 10;
  wl.items_per_volume = 10;
  wl.duration = bench::MaybeShorten(1 * kHour, 30 * kMinute);
  const std::string mins =
      bench::ParseFlagValue(argc, argv, "--duration-min=");
  if (!mins.empty()) {
    wl.duration = bench::ParseIntOrExit("--duration-min", mins) * kMinute;
  }
  return wl;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBenchLogging();
  const std::string telemetry_base = bench::ParseTelemetryFlag(argc, argv);
  const std::string summary_path =
      bench::ParseTelemetrySummaryFlag(argc, argv);
  // --rolling-summary=<path> streams live rolling windows from the
  // instrumented capture run (tailable mid-run via `eco_report tail`).
  const std::string rolling_path = bench::ParseRollingSummaryFlag(argc, argv);
  const SimDuration rolling_window = bench::ParseRollingWindowFlag(argc, argv);
  // --profile=<base> attaches the wall-clock phase profiler to the
  // instrumented capture run (requires --telemetry).
  const std::string profile_base = bench::ParseProfileFlag(argc, argv);
  const bool capture_only =
      bench::HasFlag(argc, argv, "--capture-only") && !telemetry_base.empty();
  bench::PrintHeader(
      "Fleet-scale planning — cloud block storage",
      "beyond the paper: 10k enclosures / 1M items, Alibaba-shaped "
      "write-dominant heavy-tailed volumes");

  const workload::CloudBlockConfig wl_config = FleetConfig(argc, argv);
  std::printf("fleet: %d enclosures, %d volumes, %d items, %s sim\n",
              wl_config.num_enclosures,
              wl_config.num_enclosures * wl_config.volumes_per_enclosure,
              wl_config.num_enclosures * wl_config.volumes_per_enclosure *
                  wl_config.items_per_volume,
              FormatDuration(wl_config.duration).c_str());

  if (capture_only) {
    replay::ExperimentConfig config;
    core::PowerManagementConfig pm;
    replay::ExperimentJob job;
    job.workload =
        [wl_config]() -> Result<std::unique_ptr<workload::Workload>> {
      auto wl = workload::CloudBlockWorkload::Create(wl_config);
      if (!wl.ok()) return wl.status();
      return Result<std::unique_ptr<workload::Workload>>(
          std::move(wl).value());
    };
    job.policy = replay::PaperPolicySet(pm)[1];
    job.config = config;
    return bench::CaptureTelemetry(telemetry_base, std::move(job),
                                   summary_path, 1u << 22, rolling_path,
                                   rolling_window, profile_base);
  }

  auto workload = workload::CloudBlockWorkload::Create(wl_config);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }
  std::printf("volume roles: %d hot / %d bursty-write / %d read-burst / "
              "%d idle\n",
              workload.value()->hot_volumes(),
              workload.value()->bursty_volumes(),
              workload.value()->read_volumes(),
              workload.value()->idle_volumes());

  replay::ExperimentConfig config;
  core::PowerManagementConfig pm;
  // The policy is constructed directly (not through PaperPolicySet) so
  // its planning and classifier counters stay inspectable after the run.
  core::EcoStoragePolicy policy(pm);
  replay::Experiment experiment(workload.value().get(), &policy, config);
  auto metrics = experiment.Run();
  if (!metrics.ok()) {
    std::cerr << metrics.status().ToString() << "\n";
    return 1;
  }
  const replay::ExperimentMetrics& m = metrics.value();

  std::printf("\n[power]      avg total %.1f W (enclosures %.1f W + "
              "controller %.1f W)\n",
              m.avg_total_power, m.avg_enclosure_power,
              m.avg_controller_power);
  std::printf("[io]         %lld logical I/Os, avg response %.3f ms "
              "(reads %.3f ms)\n",
              static_cast<long long>(m.logical_ios), m.avg_response_ms,
              m.avg_read_response_ms);
  std::printf("[migrations] %lld items / %.2f GiB moved\n",
              static_cast<long long>(m.item_migrations),
              static_cast<double>(m.migrated_bytes) / (1024.0 * 1024.0 *
                                                       1024.0));
  std::printf("[planning]   %lld placement determinations\n",
              static_cast<long long>(policy.placement_determinations()));
  std::printf("[monitor]    classifier peak state %.2f MiB\n",
              static_cast<double>(policy.classifier_peak_state_bytes()) /
                  (1024.0 * 1024.0));
  std::printf("[host]       %.2f s wall, %lld sim events\n",
              m.wall_seconds,
              static_cast<long long>(m.sim_events_executed));
  return 0;
}
