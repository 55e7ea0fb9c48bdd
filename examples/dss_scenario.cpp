// DSS scenario: a TPC-H-shaped workload (paper §VI-B) replayed under the
// four policies; prints power, migration tables and the scaled query
// response times of paper Fig. 15 (Q2 / Q7 / Q21).
//
//   ./build/examples/dss_scenario [minutes]

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/dss_workload.h"

using namespace ecostore;  // NOLINT: example brevity

int main(int argc, char** argv) {
  const char* log_env = std::getenv("ECOSTORE_LOG");
  Logger::threshold = (log_env != nullptr && std::string(log_env) == "debug")
                          ? LogLevel::kDebug
                          : LogLevel::kWarn;

  workload::DssConfig wl_config;
  if (argc > 1) {
    wl_config.duration = static_cast<SimDuration>(
        std::atof(argv[1]) * static_cast<double>(kMinute));
  }
  auto workload = workload::DssWorkload::Create(wl_config);
  if (!workload.ok()) {
    std::cerr << "workload: " << workload.status().ToString() << "\n";
    return 1;
  }

  replay::ExperimentConfig config;
  core::PowerManagementConfig pm;

  auto runs = replay::ParallelRunSuite(
      replay::FactoryOf<workload::DssWorkload>(wl_config),
      replay::PaperPolicySet(pm), config, replay::SuiteOptions{});
  if (!runs.ok()) {
    std::cerr << "run: " << runs.status().ToString() << "\n";
    return 1;
  }

  std::cout << "=== DSS / TPC-H ("
            << FormatDuration(workload.value()->info().duration)
            << ") ===\n\n";
  replay::PrintPowerTable(std::cout, runs.value());
  std::cout << "\n";
  replay::PrintResponseTable(std::cout, runs.value());
  std::cout << "\n";
  replay::PrintMigrationTable(std::cout, runs.value());

  // Fig. 15: query response times scaled from per-query read responses.
  const replay::ExperimentMetrics* base =
      replay::FindRun(runs.value(), "no_power_saving");
  std::map<int32_t, double> wall;
  const auto& seconds = workload.value()->query_wall_seconds();
  for (int q = 1; q <= workload::DssWorkload::kNumQueries; ++q) {
    wall[q] = seconds[static_cast<size_t>(q)];
  }
  std::cout << "\nquery response [s] (measured wall, first issue -> last "
               "I/O completion):\n";
  std::cout << "  policy              Q2        Q7        Q21\n";
  for (const replay::ExperimentMetrics& m : runs.value()) {
    auto measured = replay::MeasuredQueryWallSeconds(m);
    std::cout << "  " << m.policy;
    for (size_t pad = m.policy.size(); pad < 18; ++pad) std::cout << ' ';
    for (int q : {2, 7, 21}) {
      std::cout << "  " << measured[q];
    }
    std::cout << "\n";
  }
  (void)base;
  (void)wall;
  std::cout << "\n";
  replay::PrintIntervalCdf(std::cout, runs.value(),
                           {10 * kSecond, 52 * kSecond, 2 * kMinute,
                            10 * kMinute});
  return 0;
}
