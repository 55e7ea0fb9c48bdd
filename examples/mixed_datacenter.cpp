// Mixed-datacenter scenario: a file server and an OLTP system
// consolidated on one array (the situation the paper's introduction
// motivates — different applications with very different I/O behaviour
// sharing storage). Shows the composite workload, the per-enclosure
// breakdown, the sampled power timeline and the clairvoyant upper bound
// on spin-down savings.
//
//   ./build/examples/mixed_datacenter [minutes]

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "replay/potential.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/composite_workload.h"
#include "workload/file_server_workload.h"
#include "workload/oltp_workload.h"

using namespace ecostore;  // NOLINT: example brevity

/// A thinned file server (6 enclosures) plus a small OLTP rig (4 DB
/// enclosures + log) on an 11-enclosure array.
Result<std::unique_ptr<workload::Workload>> CreateMixed(SimDuration duration) {
  workload::FileServerConfig fs_config;
  fs_config.duration = duration;
  fs_config.num_enclosures = 6;
  fs_config.big_hot_files = 6;
  fs_config.small_hot_files = 40;
  fs_config.popular_files = 120;
  fs_config.tail_files = 300;
  fs_config.archive_files = 70;
  auto fs = workload::FileServerWorkload::Create(fs_config);
  if (!fs.ok()) return fs.status();

  workload::OltpConfig oltp_config;
  oltp_config.duration = duration;
  oltp_config.db_enclosures = 4;
  oltp_config.total_db_iops = 1600;
  auto oltp = workload::OltpWorkload::Create(oltp_config);
  if (!oltp.ok()) return oltp.status();

  std::vector<std::unique_ptr<workload::Workload>> children;
  children.push_back(std::move(fs).value());
  children.push_back(std::move(oltp).value());
  auto mixed = workload::CompositeWorkload::Create("mixed_datacenter",
                                                   std::move(children));
  if (!mixed.ok()) return mixed.status();
  return Result<std::unique_ptr<workload::Workload>>(
      std::move(mixed).value());
}

int main(int argc, char** argv) {
  Logger::threshold = LogLevel::kWarn;

  SimDuration duration = 45 * kMinute;
  if (argc > 1) {
    duration = static_cast<SimDuration>(std::atof(argv[1]) *
                                        static_cast<double>(kMinute));
  }

  auto mixed = CreateMixed(duration);
  if (!mixed.ok()) {
    std::cerr << mixed.status().ToString() << "\n";
    return 1;
  }
  std::cout << "array: " << mixed.value()->info().num_enclosures
            << " enclosures, "
            << mixed.value()->catalog().item_count() << " data items, "
            << FormatBytes(mixed.value()->info().total_data_bytes)
            << " of data\n\n";

  replay::ExperimentConfig config;
  config.power_sample_interval = 30 * kSecond;
  core::PowerManagementConfig pm;
  auto runs = replay::ParallelRunSuite(
      [duration] { return CreateMixed(duration); },
      replay::PaperPolicySet(pm), config, replay::SuiteOptions{});
  if (!runs.ok()) {
    std::cerr << runs.status().ToString() << "\n";
    return 1;
  }

  replay::PrintPowerTable(std::cout, runs.value());
  std::cout << "\n";
  replay::PrintResponseTable(std::cout, runs.value());

  const replay::ExperimentMetrics* proposed =
      replay::FindRun(runs.value(), "proposed");
  const replay::ExperimentMetrics* base =
      replay::FindRun(runs.value(), "no_power_saving");

  std::cout << "\nper-enclosure breakdown (proposed) — the hot/cold "
               "structure:\n";
  replay::PrintEnclosureTable(std::cout, *proposed);

  std::cout << "\npower timeline (proposed):\n";
  replay::PrintPowerTimeline(std::cout, *proposed);

  // How much headroom is left on the no-power-saving trace?
  auto potential =
      replay::ComputeOraclePotential(*base, config.storage.enclosure);
  std::cout << "\nclairvoyant spin-down bound on the unmanaged trace: "
            << potential.savable_power << " W ("
            << potential.savable_pct_of_enclosures << "% of enclosure "
            << "power, " << potential.exploitable_intervals
            << " exploitable intervals)\n";
  auto achieved =
      replay::ComputeOraclePotential(*proposed, config.storage.enclosure);
  std::cout << "still unexploited after the proposed method: "
            << achieved.savable_power << " W\n";
  return 0;
}
