// OLTP scenario: a TPC-C-shaped workload (paper §VI-B) replayed under the
// four policies; prints power, response, migration tables and the scaled
// transaction throughput of paper Fig. 12.
//
//   ./build/examples/oltp_scenario [minutes]

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/oltp_workload.h"

using namespace ecostore;  // NOLINT: example brevity

int main(int argc, char** argv) {
  const char* log_env = std::getenv("ECOSTORE_LOG");
  Logger::threshold = (log_env != nullptr && std::string(log_env) == "debug")
                          ? LogLevel::kDebug
                          : LogLevel::kWarn;

  workload::OltpConfig wl_config;
  if (argc > 1) {
    wl_config.duration = static_cast<SimDuration>(
        std::atof(argv[1]) * static_cast<double>(kMinute));
  }
  auto workload = workload::OltpWorkload::Create(wl_config);
  if (!workload.ok()) {
    std::cerr << "workload: " << workload.status().ToString() << "\n";
    return 1;
  }

  replay::ExperimentConfig config;
  core::PowerManagementConfig pm;

  auto runs = replay::ParallelRunSuite(
      replay::FactoryOf<workload::OltpWorkload>(wl_config),
      replay::PaperPolicySet(pm), config, replay::SuiteOptions{});
  if (!runs.ok()) {
    std::cerr << "run: " << runs.status().ToString() << "\n";
    return 1;
  }

  std::cout << "=== OLTP / TPC-C ("
            << FormatDuration(workload.value()->info().duration)
            << ") ===\n\n";
  replay::PrintPowerTable(std::cout, runs.value());
  std::cout << "\n";
  replay::PrintResponseTable(std::cout, runs.value());
  std::cout << "\n";
  replay::PrintMigrationTable(std::cout, runs.value());

  // Fig. 12: transaction throughput scaled from read response times.
  const replay::ExperimentMetrics* base =
      replay::FindRun(runs.value(), "no_power_saving");
  std::cout << "\ntransaction throughput (tpmC, scaled per paper "
               "\xC2\xA7VII-A.5):\n";
  for (const replay::ExperimentMetrics& m : runs.value()) {
    double tpmc = replay::ScaledTransactionThroughput(
        workload::OltpWorkload::kBaselineTpmC, *base, m);
    std::cout << "  " << m.policy << ": " << tpmc << " ("
              << 100.0 * (tpmc / workload::OltpWorkload::kBaselineTpmC - 1.0)
              << "%)\n";
  }
  std::cout << "\n";
  replay::PrintIntervalCdf(std::cout, runs.value(),
                           {10 * kSecond, 52 * kSecond, 2 * kMinute,
                            10 * kMinute});
  return 0;
}
