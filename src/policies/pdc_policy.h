#ifndef ECOSTORE_POLICIES_PDC_POLICY_H_
#define ECOSTORE_POLICIES_PDC_POLICY_H_

#include <string>
#include <vector>

#include "policies/storage_policy.h"

namespace ecostore::policies {

/// \brief Popular Data Concentration (Pinheiro & Bianchini 2004), the
/// paper's logical-behaviour baseline (§VII-A.1).
///
/// Every epoch (30 minutes, paper Table II) PDC ranks files by popularity
/// (an exponentially smoothed access count) and lays them out greedily:
/// the most popular files fill the first enclosure up to its load and
/// space budgets, the next ones the second, and so on. Unpopular tail
/// enclosures then idle and spin down. PDC migrates any file whose
/// assigned enclosure changed — which is most of them whenever popularity
/// ranks churn, explaining the paper's multi-terabyte migration totals.
///
/// The per-epoch access counts are folded in during ingest by a small
/// Application Monitor sink the policy attaches in Start(), so no logical
/// trace is retained between epoch ends (DESIGN.md §13).
class PdcPolicy : public StoragePolicy {
 public:
  struct Options {
    SimDuration epoch = 30 * kMinute;
    /// Fraction of an enclosure's capacity PDC fills before moving on.
    double fill_fraction = 0.9;
    /// Fraction of an enclosure's max IOPS used as its load budget.
    double load_fraction = 0.75;
    /// O: maximum random IOPS per enclosure.
    double max_enclosure_iops = 900.0;
    /// Popularity smoothing: pop = decay * old + count.
    double decay = 0.5;
  };

  explicit PdcPolicy(const Options& options) : options_(options) {}

  std::string name() const override { return "pdc"; }
  SimDuration initial_period() const override { return options_.epoch; }

  void Start(const storage::StorageSystem& system,
             PolicyActuator* actuator) override;

  SimDuration OnPeriodEnd(const monitor::MonitorSnapshot& snapshot,
                          const storage::StorageSystem& system,
                          PolicyActuator* actuator) override;

  int64_t placement_determinations() const override {
    return placement_determinations_;
  }

 private:
  /// Per-item logical access counts of the current epoch.
  class AccessCounter : public monitor::LogicalIoSink {
   public:
    void OnLogicalIo(const trace::LogicalIoRecord& rec) override {
      if (rec.item >= 0 && static_cast<size_t>(rec.item) < counts_.size()) {
        counts_[static_cast<size_t>(rec.item)]++;
      }
    }

    /// Starts counting `item_count` items from zero.
    void Reset(size_t item_count) { counts_.assign(item_count, 0); }

    /// Moves the epoch's counts into `*out` and restarts from zero,
    /// reusing `*out`'s storage for the next epoch.
    void TakeCounts(std::vector<int64_t>* out) {
      out->swap(counts_);
      counts_.assign(out->size(), 0);
    }

   private:
    std::vector<int64_t> counts_;
  };

  Options options_;
  AccessCounter counter_;
  /// False when the runtime cannot stream logical I/O; PDC then never
  /// plans rather than planning on all-zero counts.
  bool counting_ = false;
  std::vector<int64_t> counts_;     // per item, the ending epoch
  std::vector<double> popularity_;  // per item
  int64_t placement_determinations_ = 0;
};

}  // namespace ecostore::policies

#endif  // ECOSTORE_POLICIES_PDC_POLICY_H_
