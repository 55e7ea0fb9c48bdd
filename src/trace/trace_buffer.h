#ifndef ECOSTORE_TRACE_TRACE_BUFFER_H_
#define ECOSTORE_TRACE_TRACE_BUFFER_H_

#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "trace/io_record.h"

namespace ecostore::trace {

/// \brief Append-only buffer of logical I/O records for one monitoring
/// period (the Application Monitor's in-memory repository, paper §III-A).
///
/// Records must be appended in non-decreasing time order; the classifier
/// relies on that ordering.
class LogicalTraceBuffer {
 public:
  void Append(const LogicalIoRecord& rec) { records_.push_back(rec); }

  /// Empties the buffer for the next period while KEEPING the backing
  /// storage, so a steady-state workload appends without reallocating:
  /// after the first few periods the monitor's record-capture hot path is
  /// allocation-free.
  void Clear() { records_.clear(); }

  /// Pre-grows the backing storage (e.g. to an expected period volume).
  void Reserve(size_t n) { records_.reserve(n); }

  const std::vector<LogicalIoRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  size_t capacity() const { return records_.capacity(); }
  bool empty() const { return records_.empty(); }

 private:
  std::vector<LogicalIoRecord> records_;
};

}  // namespace ecostore::trace

#endif  // ECOSTORE_TRACE_TRACE_BUFFER_H_
