// Reproduces paper Figs. 14-16 and 19 (TPC-H / DSS): power, query
// response times (Q2 / Q7 / Q21), migrated data and the long-interval
// curve.
//
// Paper values: power 2191.2 W -> proposed 638.8 W (-70.8%), PDC -55.9%,
// DDR -69.9%; query responses worse for all methods with DDR ~3x the
// proposed method; determinations 10 / 8 / ~205k.

#include <cstdio>
#include <iostream>
#include <map>

#include "bench/bench_util.h"
#include "bench/telemetry_capture.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/dss_workload.h"

using namespace ecostore;  // NOLINT

int main(int argc, char** argv) {
  bench::InitBenchLogging();
  const int threads = bench::ParseThreadsFlag(argc, argv);
  const bench::CaptureFlags capture = bench::ParseCaptureFlags(argc, argv);
  bench::PrintHeader("Figs. 14-16, 19 — TPC-H (DSS)",
                     "all methods save >50%; proposed & DDR ~70%, PDC "
                     "~56%; DDR's responses worst");

  workload::DssConfig wl_config;
  wl_config.duration = bench::MaybeShorten(6 * kHour, 90 * kMinute);
  if (bench::QuickMode()) wl_config.scale = 0.2;

  replay::ExperimentConfig config;
  core::PowerManagementConfig pm;

  // --telemetry: one extra instrumented run of the proposed method
  // (PaperPolicySet index 1), after the figures so the capture shares
  // nothing with them; --capture-only runs just this.
  replay::ExperimentJob capture_job;
  capture_job.workload = replay::FactoryOf<workload::DssWorkload>(wl_config);
  capture_job.policy = replay::PaperPolicySet(pm)[1];
  capture_job.config = config;
  if (capture.capture_only) {
    return bench::CaptureTelemetry(capture, std::move(capture_job));
  }

  // One instance for Fig. 15b's reference query wall times, which the
  // configuration alone determines.
  auto workload = workload::DssWorkload::Create(wl_config);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }

  // Each policy replays its own deterministic workload clone (the capture
  // job's factory); --threads=N runs N at once, with the same figures.
  Result<std::vector<replay::ExperimentMetrics>> runs =
      replay::ParallelRunSuite(capture_job.workload,
                               replay::PaperPolicySet(pm), config,
                               replay::SuiteOptions{threads});
  if (!runs.ok()) {
    std::cerr << runs.status().ToString() << "\n";
    return 1;
  }

  std::cout << "\n[Fig. 14] average power:\n";
  replay::PrintPowerTable(std::cout, runs.value());

  std::cout << "\n[Fig. 15] query response [s], measured wall time (first "
               "issue -> last I/O completion):\n";
  std::printf("  %-18s %10s %10s %10s\n", "policy", "Q2", "Q7", "Q21");
  for (const replay::ExperimentMetrics& m : runs.value()) {
    auto wall = replay::MeasuredQueryWallSeconds(m);
    std::printf("  %-18s %10.1f %10.1f %10.1f\n", m.policy.c_str(), wall[2],
                wall[7], wall[21]);
  }

  const replay::ExperimentMetrics* base =
      replay::FindRun(runs.value(), "no_power_saving");
  std::cout << "\n[Fig. 15b] query response [s], scaled by read-response "
               "sums (paper \xC2\xA7VII-A.5 model; inflates under "
               "open-loop spin-up stalls — see EXPERIMENTS.md):\n";
  {
    std::map<int32_t, double> q_orig;
    const auto& seconds = workload.value()->query_wall_seconds();
    for (int q = 1; q <= workload::DssWorkload::kNumQueries; ++q) {
      q_orig[q] = seconds[static_cast<size_t>(q)];
    }
    std::printf("  %-18s %10s %10s %10s\n", "policy", "Q2", "Q7", "Q21");
    for (const replay::ExperimentMetrics& m : runs.value()) {
      auto scaled = replay::ScaledQueryResponses(q_orig, *base, m);
      std::printf("  %-18s %10.1f %10.1f %10.1f\n", m.policy.c_str(),
                  scaled[2], scaled[7], scaled[21]);
    }
  }

  std::cout << "\n[Fig. 16 + \xC2\xA7VII-D] migrated data / "
               "determinations:\n";
  replay::PrintMigrationTable(std::cout, runs.value());

  std::cout << "\n[Fig. 19] cumulative idle-interval length by threshold:\n";
  replay::PrintIntervalCdf(
      std::cout, runs.value(),
      {10 * kSecond, 52 * kSecond, 2 * kMinute, 10 * kMinute,
       30 * kMinute});

  if (!capture.telemetry_base.empty()) {
    return bench::CaptureTelemetry(capture, std::move(capture_job));
  }
  return 0;
}
