#ifndef ECOSTORE_WORKLOAD_RECORDED_WORKLOAD_H_
#define ECOSTORE_WORKLOAD_RECORDED_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "workload/workload.h"

namespace ecostore::workload {

/// \brief A workload backed by a captured logical I/O trace — the paper's
/// actual methodology (§VII-A.2): traces are recorded once, then replayed
/// identically under every power-saving method.
///
/// Construct from in-memory records, or load a (catalog.csv, trace.csv)
/// pair written by Save(). Records must be in non-decreasing time order,
/// reference catalog items, and start inside them (0 <= offset < item
/// size, size >= 0).
class RecordedWorkload : public Workload {
 public:
  /// Builds from in-memory parts. `records` must be time-ordered.
  /// `num_enclosures` 0 derives it from the catalog's volume mapping.
  static Result<std::unique_ptr<RecordedWorkload>> FromRecords(
      std::string name, storage::DataItemCatalog catalog,
      std::vector<trace::LogicalIoRecord> records,
      SimDuration duration = 0, int num_enclosures = 0);

  /// Loads `<prefix>.catalog.csv` + `<prefix>.trace.csv`.
  static Result<std::unique_ptr<RecordedWorkload>> Load(
      const std::string& prefix);

  /// Captures another workload's full stream into a RecordedWorkload.
  static Result<std::unique_ptr<RecordedWorkload>> Capture(
      Workload* source);

  /// Writes `<prefix>.catalog.csv` + `<prefix>.trace.csv`.
  Status Save(const std::string& prefix) const;

  const WorkloadInfo& info() const override { return info_; }
  const storage::DataItemCatalog& catalog() const override {
    return catalog_;
  }
  bool Next(trace::LogicalIoRecord* rec) override;
  size_t NextBatch(std::vector<trace::LogicalIoRecord>* out,
                   size_t max_records) override;
  void Reset() override { cursor_ = 0; }

  const std::vector<trace::LogicalIoRecord>& records() const {
    return records_;
  }

 private:
  RecordedWorkload() = default;

  WorkloadInfo info_;
  storage::DataItemCatalog catalog_;
  std::vector<trace::LogicalIoRecord> records_;
  size_t cursor_ = 0;
};

}  // namespace ecostore::workload

#endif  // ECOSTORE_WORKLOAD_RECORDED_WORKLOAD_H_
