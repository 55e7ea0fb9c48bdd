// Quickstart: run a short file-server workload under the proposed
// application-collaborative power-saving method and the paper's
// baselines, then print the paper-style comparison tables.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdlib>
#include <iostream>

#include "common/logging.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/file_server_workload.h"

using namespace ecostore;  // NOLINT: example brevity

int main(int argc, char** argv) {
  const char* log_env = std::getenv("ECOSTORE_LOG");
  Logger::threshold = (log_env != nullptr && std::string(log_env) == "debug")
                          ? LogLevel::kDebug
                          : LogLevel::kWarn;

  // A 30-minute slice of the file-server workload keeps the example fast;
  // pass a duration in minutes to run longer (e.g. `quickstart 360`).
  workload::FileServerConfig wl_config;
  wl_config.duration = 30 * kMinute;
  if (argc > 1) {
    wl_config.duration = static_cast<SimDuration>(std::atof(argv[1]) *
                                                  static_cast<double>(kMinute));
  }
  auto workload = workload::FileServerWorkload::Create(wl_config);
  if (!workload.ok()) {
    std::cerr << "workload: " << workload.status().ToString() << "\n";
    return 1;
  }

  replay::ExperimentConfig config;
  config.storage.num_enclosures = workload.value()->info().num_enclosures;

  // Table II parameters (break-even 52 s, alpha 1.2, 520 s initial period)
  // are the PowerManagementConfig defaults.
  core::PowerManagementConfig pm;

  auto runs = replay::ParallelRunSuite(
      replay::FactoryOf<workload::FileServerWorkload>(wl_config),
      replay::PaperPolicySet(pm), config, replay::SuiteOptions{});
  if (!runs.ok()) {
    std::cerr << "run: " << runs.status().ToString() << "\n";
    return 1;
  }

  std::cout << "=== File Server (" << FormatDuration(wl_config.duration)
            << " slice) ===\n\n";
  replay::PrintPowerTable(std::cout, runs.value());
  std::cout << "\n";
  replay::PrintResponseTable(std::cout, runs.value());
  std::cout << "\n";
  replay::PrintMigrationTable(std::cout, runs.value());
  std::cout << "\n";
  replay::PrintIntervalCdf(std::cout, runs.value(),
                           {10 * kSecond, 52 * kSecond, 2 * kMinute,
                            10 * kMinute});
  return 0;
}
