#ifndef ECOSTORE_POLICIES_DDR_POLICY_H_
#define ECOSTORE_POLICIES_DDR_POLICY_H_

#include <string>
#include <vector>

#include "policies/storage_policy.h"

namespace ecostore::policies {

/// \brief Dynamic Data Reorganization (Otoo, Rotem & Tsao 2010), the
/// paper's physical-behaviour baseline (§VII-A.1).
///
/// DDR watches per-enclosure *physical* IOPS over short windows. An
/// enclosure whose window IOPS falls below LowTH (= TargetTH / 2) is
/// classified cold and may spin down; when a physical I/O nevertheless
/// lands on a cold enclosure, DDR migrates the accessed blocks to a hot
/// enclosure with headroom (block-granular moves — hence its tiny total
/// migration sizes in the paper). DDR never sees application data items,
/// so it cannot consolidate by access pattern; it makes a placement
/// determination for every enclosure every window, which is why the paper
/// reports ~10^5 determinations against the proposed method's handful.
///
/// The window's per-enclosure I/O counts are accumulated by the
/// OnPhysicalIo() hook itself, so no physical trace is retained.
class DdrPolicy : public StoragePolicy {
 public:
  struct Options {
    /// TargetTH: IOPS an enclosure may serve while meeting the
    /// application's throughput goal (paper Table II: 450).
    double target_th = 450.0;
    /// Evaluation window; one determination per enclosure per window.
    SimDuration window = 10 * kSecond;
    /// Cap on block-migration bytes per cold enclosure per window.
    int64_t migration_cap_bytes = 4 * kMiB;
  };

  explicit DdrPolicy(const Options& options) : options_(options) {}

  std::string name() const override { return "ddr"; }
  SimDuration initial_period() const override { return options_.window; }

  double low_th() const { return options_.target_th / 2.0; }

  void Start(const storage::StorageSystem& system,
             PolicyActuator* actuator) override;

  SimDuration OnPeriodEnd(const monitor::MonitorSnapshot& snapshot,
                          const storage::StorageSystem& system,
                          PolicyActuator* actuator) override;

  void OnPhysicalIo(const trace::PhysicalIoRecord& rec) override;

  int64_t placement_determinations() const override {
    return placement_determinations_;
  }

 private:
  Options options_;
  PolicyActuator* actuator_ = nullptr;
  std::vector<bool> cold_;              // last window's classification
  std::vector<double> window_iops_;     // last window's measured IOPS
  std::vector<int64_t> window_migrated_;  // per-enclosure cap tracking
  std::vector<int64_t> window_ios_;     // current window's physical I/Os
  std::vector<int64_t> ending_ios_;     // window_ios_ swapped out at its end
  int64_t placement_determinations_ = 0;
};

}  // namespace ecostore::policies

#endif  // ECOSTORE_POLICIES_DDR_POLICY_H_
