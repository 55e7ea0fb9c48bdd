// Example: writing your own power-management policy against the
// StoragePolicy interface and racing it against the built-ins.
//
// The toy policy below ("read-ratio splitter") ignores the paper's
// pattern machinery and simply write-delays everything write-heavy and
// allows spin-down everywhere — a plausible-looking heuristic that the
// comparison exposes as inferior to the full application-collaborative
// method.
//
//   ./build/examples/custom_policy [minutes]

#include <cstdlib>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "core/eco_storage_policy.h"
#include "policies/basic_policies.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/file_server_workload.h"

using namespace ecostore;  // NOLINT: example brevity

namespace {

/// A custom policy only needs name(), initial_period() and OnPeriodEnd();
/// Start() and the event hooks are optional. Per-period statistics are
/// folded in as the I/O streams past, through a sink attached to the
/// Application Monitor — the library retains no trace for the policy.
class ReadRatioSplitterPolicy : public policies::StoragePolicy {
 public:
  std::string name() const override { return "read_ratio_splitter"; }
  SimDuration initial_period() const override { return 5 * kMinute; }

  void Start(const storage::StorageSystem& system,
             policies::PolicyActuator* actuator) override {
    counter_.Reset(system.virtualization().catalog().item_count());
    if (!actuator->AttachLogicalIoSink(&counter_)) {
      ECOSTORE_LOG(kError) << name() << ": runtime has no logical I/O sink";
    }
    // Let everything spin down; no placement, no preload.
    for (int e = 0; e < system.num_enclosures(); ++e) {
      actuator->SetSpinDownAllowed(static_cast<EnclosureId>(e), true);
    }
  }

  SimDuration OnPeriodEnd(const monitor::MonitorSnapshot& snapshot,
                          const storage::StorageSystem& system,
                          policies::PolicyActuator* actuator) override {
    (void)snapshot;
    (void)system;
    determinations_++;
    std::unordered_set<DataItemId> write_heavy;
    for (size_t i = 0; i < counter_.reads.size(); ++i) {
      if (counter_.writes[i] > counter_.reads[i]) {
        write_heavy.insert(static_cast<DataItemId>(i));
      }
    }
    counter_.Reset(counter_.reads.size());
    actuator->SetWriteDelayItems(write_heavy);
    return initial_period();
  }

  int64_t placement_determinations() const override {
    return determinations_;
  }

 private:
  /// Counts reads and writes per item over the current period.
  struct ReadWriteCounter : monitor::LogicalIoSink {
    std::vector<int64_t> reads;
    std::vector<int64_t> writes;

    void OnLogicalIo(const trace::LogicalIoRecord& rec) override {
      if (rec.item < 0 || static_cast<size_t>(rec.item) >= reads.size()) {
        return;
      }
      (rec.is_read() ? reads : writes)[static_cast<size_t>(rec.item)]++;
    }

    void Reset(size_t item_count) {
      reads.assign(item_count, 0);
      writes.assign(item_count, 0);
    }
  };

  ReadWriteCounter counter_;
  int64_t determinations_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Logger::threshold = LogLevel::kWarn;

  workload::FileServerConfig wl_config;
  wl_config.duration = 60 * kMinute;
  if (argc > 1) {
    wl_config.duration = static_cast<SimDuration>(
        std::atof(argv[1]) * static_cast<double>(kMinute));
  }

  std::vector<replay::PolicyFactory> factories;
  factories.push_back(
      [] { return std::make_unique<policies::NoPowerSavingPolicy>(); });
  factories.push_back(
      [] { return std::make_unique<ReadRatioSplitterPolicy>(); });
  factories.push_back([] {
    return std::make_unique<core::EcoStoragePolicy>(
        core::PowerManagementConfig{});
  });

  auto runs = replay::ParallelRunSuite(
      replay::FactoryOf<workload::FileServerWorkload>(wl_config), factories,
      replay::ExperimentConfig{}, replay::SuiteOptions{});
  if (!runs.ok()) {
    std::cerr << "run: " << runs.status().ToString() << "\n";
    return 1;
  }

  std::cout << "=== custom policy vs built-ins (file server, "
            << FormatDuration(wl_config.duration) << ") ===\n\n";
  replay::PrintPowerTable(std::cout, runs.value());
  std::cout << "\n";
  replay::PrintResponseTable(std::cout, runs.value());
  std::cout << "\n";
  replay::PrintMigrationTable(std::cout, runs.value());
  return 0;
}
