// Reproduces paper Figs. 8-10 and 17 (File Server): average power,
// average I/O response time, migrated data size, placement determinations
// and the long-interval curve, for the proposed method vs. PDC, DDR and
// no power saving.
//
// Paper values: power 2977.9 W -> proposed 2209.2 W (-25.8%), PDC -3.5%,
// DDR -3.6%; response proposed 17.1 ms < PDC 22.6 < DDR 27.0; migrated
// proposed 23.1 GB, PDC > 3 TB, DDR 1.3 GB; determinations 5 / 11 / ~91k;
// Fig. 17: proposed's cumulative long-interval length ~2x the others.

#include <iostream>

#include "bench/bench_util.h"
#include "bench/telemetry_capture.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/file_server_workload.h"

using namespace ecostore;  // NOLINT

int main(int argc, char** argv) {
  bench::InitBenchLogging();
  const bench::CaptureFlags capture = bench::ParseCaptureFlags(argc, argv);
  bench::PrintHeader(
      "Figs. 8-10, 17 — File Server",
      "proposed -25.8% power, best response, 23.1 GB migrated");

  workload::FileServerConfig wl_config;
  wl_config.duration = bench::MaybeShorten(6 * kHour, 45 * kMinute);
  replay::ExperimentConfig config;
  config.power_sample_interval = 60 * kSecond;  // wall-meter sampling
  core::PowerManagementConfig pm;  // Table II defaults

  // --telemetry: one extra instrumented run of the proposed method
  // (PaperPolicySet index 1), after the figures so the capture shares
  // nothing with them; --capture-only runs just this.
  replay::ExperimentJob capture_job;
  capture_job.workload =
      replay::FactoryOf<workload::FileServerWorkload>(wl_config);
  capture_job.policy = replay::PaperPolicySet(pm)[1];
  capture_job.config = config;
  if (capture.capture_only) {
    return bench::CaptureTelemetry(capture, std::move(capture_job));
  }

  // Each policy replays its own deterministic workload clone (the capture
  // job's factory).
  Result<std::vector<replay::ExperimentMetrics>> runs =
      replay::ParallelRunSuite(capture_job.workload,
                               replay::PaperPolicySet(pm), config,
                               replay::SuiteOptions{});
  if (!runs.ok()) {
    std::cerr << runs.status().ToString() << "\n";
    return 1;
  }

  std::cout << "\n[Fig. 8] average power (" << FormatDuration(
                   wl_config.duration)
            << " run, " << wl_config.num_enclosures << " enclosures):\n";
  replay::PrintPowerTable(std::cout, runs.value());

  std::cout << "\n[Fig. 9] average I/O response time:\n";
  replay::PrintResponseTable(std::cout, runs.value());

  std::cout << "\n[Fig. 10 + \xC2\xA7VII-D] migrated data / "
               "determinations:\n";
  replay::PrintMigrationTable(std::cout, runs.value());

  std::cout << "\n[Fig. 17] cumulative idle-interval length by threshold:\n";
  replay::PrintIntervalCdf(
      std::cout, runs.value(),
      {10 * kSecond, 30 * kSecond, 52 * kSecond, 2 * kMinute, 5 * kMinute,
       20 * kMinute});

  const replay::ExperimentMetrics* proposed =
      replay::FindRun(runs.value(), "proposed");
  if (proposed != nullptr) {
    std::cout << "\npower profile over time (proposed; sampled at 60 s):\n";
    replay::PrintPowerTimeline(std::cout, *proposed);
    std::cout << "\nper-enclosure breakdown (proposed):\n";
    replay::PrintEnclosureTable(std::cout, *proposed);
  }

  if (!capture.telemetry_base.empty()) {
    return bench::CaptureTelemetry(capture, std::move(capture_job));
  }
  return 0;
}
