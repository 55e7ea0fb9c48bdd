#ifndef ECOSTORE_MONITOR_IO_SINK_H_
#define ECOSTORE_MONITOR_IO_SINK_H_

#include "trace/io_record.h"

namespace ecostore::monitor {

/// \brief Consumer of the logical I/O stream as the Application Monitor
/// observes it (DESIGN.md §13).
///
/// A sink receives every logical I/O in global time order, on the thread
/// that drives the monitor (the serial replay loop, or the sharded
/// coordinator's scatter phase — never a lane worker). Policies attach one
/// via PolicyActuator::AttachLogicalIoSink() and fold their period
/// analysis into ingest: the proposed method's PatternClassifier, PDC's
/// per-item access counter. This is how the library observes logical I/O;
/// the per-period trace buffer is retained only for a policy that opts in
/// through StoragePolicy::wants_logical_trace().
class LogicalIoSink {
 public:
  virtual ~LogicalIoSink() = default;

  /// One logical I/O. Records arrive in non-decreasing time order.
  virtual void OnLogicalIo(const trace::LogicalIoRecord& rec) = 0;
};

}  // namespace ecostore::monitor

#endif  // ECOSTORE_MONITOR_IO_SINK_H_
