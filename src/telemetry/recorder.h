#ifndef ECOSTORE_TELEMETRY_RECORDER_H_
#define ECOSTORE_TELEMETRY_RECORDER_H_

// The event recorder: fixed-size POD events appended to per-thread
// buffers that keep every event of a run until Drain()/DrainInto() (or a
// StreamDispatcher pump) takes them. Nothing is ever overwritten: a
// capture holds the whole run, so the energy ledger prices every
// decision it made.
//
// A site costs one pointer test + one mask test when no recorder is
// attached or its class is filtered out, and one 48-byte append to a
// thread-bound buffer when it records.
//
// The buffers are a ThreadLog (telemetry/thread_log.h), the same
// per-thread append log the wall-clock profiler keeps its spans in.
// Record() takes no lock once the calling thread's buffer is bound.
// Drain() requires writers to be quiescent — it is called after
// Experiment::Run() returns, or at a pump between simulated events on
// the single replay thread.

#include <cstdint>
#include <vector>

#include "telemetry/event.h"
#include "telemetry/thread_log.h"

namespace ecostore::telemetry {

/// \brief The event recorder (see file header).
class Recorder {
 public:
  /// `mask` selects the event classes to record (kClass* bitmask); it is
  /// fixed for the recorder's lifetime.
  explicit Recorder(uint32_t mask = kClassDefault) : mask_(mask) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// The class filter Wants() tests.
  uint32_t mask() const { return mask_; }

  /// Appends one event to the calling thread's buffer (no lock once the
  /// thread is bound; the first call per thread binds under a mutex).
  void Record(const Event& event) { log_.Append(event); }

  /// Events recorded so far, summed over all threads (drained or not).
  uint64_t recorded() const { return log_.recorded(); }

  /// Merges all thread buffers into one stream ordered by simulated time
  /// (stable: same-time events keep their per-thread record order) and
  /// empties them. Callers must ensure no Record() runs concurrently.
  std::vector<Event> Drain() { return log_.Drain(); }

  /// Drain() into a caller-owned buffer, swapping the first thread's
  /// buffer with `*out` (see ThreadLog::DrainInto).
  void DrainInto(std::vector<Event>* out) { log_.DrainInto(out); }

 private:
  const uint32_t mask_;
  ThreadLog<Event, &Event::time> log_;
};

/// The universal event-site guard: one null test + one mask test.
inline bool Wants(const Recorder* recorder, uint32_t event_class) {
  return recorder != nullptr && (recorder->mask() & event_class) != 0;
}

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_RECORDER_H_
