// Parameter-sensitivity sweeps (the paper's conclusion calls for studying
// "the effectiveness of the system on different configurations"):
//   1. preload-area size — how much cache the method needs,
//   2. spin-down timeout — sensitivity to the break-even estimate,
//   3. array width — enclosure-count scaling,
//   4. HDD vs SSD enclosures (paper §VIII-D).
// Each row runs the proposed method on the file-server workload against
// its own no-power-saving reference. The grid itself lives in
// bench/sweep_config.h, shared with the `bench_micro --check` replay
// gate so the gate covers exactly what this figure reports.
//
// `--threads=N` runs all (row, policy) experiments on a shared thread
// pool (N=0: all hardware threads). Every experiment owns its workload
// clone and simulator, so the numbers are identical to a serial run.

#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "bench/sweep_config.h"
#include "bench/telemetry_capture.h"
#include "replay/suite.h"
#include "workload/file_server_workload.h"

using namespace ecostore;  // NOLINT

namespace {

struct SweepRow {
  std::string label;
  double saving_pct = 0;
  double response_ms = 0;
  int64_t spinups = 0;
  double base_wall_s = 0;  ///< host wall time of the reference run
  double eco_wall_s = 0;   ///< host wall time of the proposed-method run
};

void Print(const std::vector<SweepRow>& rows) {
  std::printf("%-34s %10s %12s %9s %9s %9s\n", "configuration", "saving[%]",
              "response[ms]", "spin-ups", "base[s]", "eco[s]");
  for (const SweepRow& row : rows) {
    std::printf("%-34s %10.1f %12.2f %9lld %9.2f %9.2f\n", row.label.c_str(),
                row.saving_pct, row.response_ms,
                static_cast<long long>(row.spinups), row.base_wall_s,
                row.eco_wall_s);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBenchLogging();
  const int threads = bench::ParseThreadsFlag(argc, argv);
  const bench::CaptureFlags capture = bench::ParseCaptureFlags(argc, argv);
  bench::PrintHeader("Sensitivity sweeps — proposed method",
                     "configuration study (paper \xC2\xA7IX future work); "
                     "no paper figure");

  workload::FileServerConfig wl;
  wl.duration = bench::MaybeShorten(90 * kMinute, 30 * kMinute);

  std::vector<bench::SweepSection> sections = bench::SweepSections(wl);
  std::vector<replay::ExperimentJob> jobs = bench::SweepJobs(sections);

  auto wall_start = std::chrono::steady_clock::now();
  auto runs = replay::RunExperiments(jobs, replay::SuiteOptions{threads});
  auto wall = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  if (!runs.ok()) {
    std::cerr << runs.status().ToString() << "\n";
    return 1;
  }

  size_t next = 0;
  for (const bench::SweepSection& section : sections) {
    std::vector<SweepRow> rows;
    for (const bench::SweepRowSpec& spec : section.rows) {
      const replay::ExperimentMetrics& base = runs.value()[next++];
      const replay::ExperimentMetrics& eco = runs.value()[next++];
      SweepRow row;
      row.label = spec.label;
      row.saving_pct = eco.EnclosurePowerSavingVs(base);
      row.response_ms = eco.avg_response_ms;
      row.spinups = eco.spinups;
      row.base_wall_s = base.wall_seconds;
      row.eco_wall_s = eco.wall_seconds;
      rows.push_back(std::move(row));
    }
    std::cout << section.title << "\n";
    Print(rows);
  }

  std::printf("ran %zu experiments on %d thread(s) in %.1f s wall\n",
              jobs.size(), threads, wall);

  if (!capture.telemetry_base.empty()) {
    // Captures the first row's proposed-method job (jobs come in
    // base/eco pairs, so index 1 is the eco run of row 1 of section 1).
    return bench::CaptureTelemetry(capture, jobs[1]);
  }
  return 0;
}
