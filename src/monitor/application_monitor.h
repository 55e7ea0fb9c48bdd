#ifndef ECOSTORE_MONITOR_APPLICATION_MONITOR_H_
#define ECOSTORE_MONITOR_APPLICATION_MONITOR_H_

#include "common/sim_time.h"
#include "monitor/io_sink.h"
#include "trace/io_record.h"
#include "trace/trace_buffer.h"

namespace ecostore::monitor {

/// \brief The Application Monitor (paper §III-A): observes the logical I/O
/// stream of the current monitoring period on the file/record layer.
///
/// The logical mapping information (data item <-> volume) lives in the
/// DataItemCatalog. Each record is forwarded to an optional streaming sink
/// (DESIGN.md §13) and, when capture is enabled, appended to the per-period
/// trace repository. The replay engine enables capture only for a policy
/// whose StoragePolicy::wants_logical_trace() is true, so a period never
/// materialises an unbounded trace buffer otherwise.
class ApplicationMonitor {
 public:
  /// Records one logical I/O. Records must arrive in time order.
  void Record(const trace::LogicalIoRecord& rec) {
    if (capture_) buffer_.Append(rec);
    if (sink_ != nullptr) sink_->OnLogicalIo(rec);
    total_records_++;
  }

  /// Trace of the current period (empty while capture is disabled).
  const trace::LogicalTraceBuffer& buffer() const { return buffer_; }

  SimTime period_start() const { return period_start_; }

  /// Attaches (or detaches, with nullptr) the streaming sink. Not owned.
  void SetSink(LogicalIoSink* sink) { sink_ = sink; }
  LogicalIoSink* sink() const { return sink_; }

  /// Enables or disables trace-buffer capture. Default on for standalone
  /// use; the replay engine sets it from StoragePolicy::wants_logical_trace().
  void SetCapture(bool capture) { capture_ = capture; }
  bool capture() const { return capture_; }

  /// Clears the period trace and starts a new period at `now`.
  void ResetPeriod(SimTime now) {
    buffer_.Clear();
    period_start_ = now;
  }

  /// Total records observed over the whole run (all periods).
  int64_t total_records() const { return total_records_; }

 private:
  trace::LogicalTraceBuffer buffer_;
  LogicalIoSink* sink_ = nullptr;
  bool capture_ = true;
  SimTime period_start_ = 0;
  int64_t total_records_ = 0;
};

}  // namespace ecostore::monitor

#endif  // ECOSTORE_MONITOR_APPLICATION_MONITOR_H_
