#ifndef ECOSTORE_TELEMETRY_RECORDER_H_
#define ECOSTORE_TELEMETRY_RECORDER_H_

// The event recorder: fixed-size POD events appended to per-thread
// buffers that keep every event of a run until Drain()/DrainInto() (or a
// StreamDispatcher pump) takes them. Nothing is ever overwritten: a
// capture holds the whole run, so the energy ledger prices every
// decision it made.
//
// Two compile modes:
//  - enabled (default): the real recorder below. A site costs one
//    pointer test + one mask test when the class is filtered out, and one
//    48-byte append to a thread-bound buffer when it records.
//  - ECOSTORE_TELEMETRY_DISABLED (CMake -DECOSTORE_TELEMETRY=OFF): the
//    whole API collapses to empty inline stubs (sizeof(Recorder) == 1,
//    asserted by tests/telemetry_disabled_test.cc) and Wants() is
//    constant false, so every event site folds away at compile time.
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

#ifdef ECOSTORE_TELEMETRY_DISABLED

/// Compiled-out recorder: every member is an empty inline stub, so call
/// sites guarded by Wants() (constant false) are dead code the optimiser
/// removes entirely. No .cc symbol is referenced, so translation units
/// compiled with ECOSTORE_TELEMETRY_DISABLED need not link the library.
/// sizeof(Recorder) must stay 1 so embedding a recorder pointer/member
/// costs nothing measurable.
class Recorder {
 public:
  static constexpr bool kEnabled = false;

  explicit Recorder(uint32_t = kClassDefault) {}

  uint32_t mask() const { return 0; }
  void Record(const Event&) {}
  uint64_t recorded() const { return 0; }
  std::vector<Event> Drain() { return {}; }
  void DrainInto(std::vector<Event>* out) { out->clear(); }
};

static_assert(sizeof(Recorder) == 1,
              "disabled Recorder must stay an empty stub");

#else  // !ECOSTORE_TELEMETRY_DISABLED

/// \brief The enabled event recorder (see file header).
class Recorder {
 public:
  static constexpr bool kEnabled = true;

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

#endif  // ECOSTORE_TELEMETRY_DISABLED

/// The universal event-site guard: one null test + one mask test when
/// telemetry is compiled in, constant false (dead code) when it is not.
inline bool Wants(const Recorder* recorder, uint32_t event_class) {
#ifdef ECOSTORE_TELEMETRY_DISABLED
  (void)recorder;
  (void)event_class;
  return false;
#else
  return recorder != nullptr && (recorder->mask() & event_class) != 0;
#endif
}

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_RECORDER_H_
