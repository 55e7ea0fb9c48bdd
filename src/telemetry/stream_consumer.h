#ifndef ECOSTORE_TELEMETRY_STREAM_CONSUMER_H_
#define ECOSTORE_TELEMETRY_STREAM_CONSUMER_H_

// Streaming telemetry: consumers fed incrementally from the per-thread
// rings in sim-time order, without materializing the full capture.
//
// Protocol. The engine pumps the dispatcher at monotonically increasing
// sim-time frontiers. A frontier F is EXCLUSIVE and is a promise in both
// directions: every event with time < F has been delivered (in the exact
// order a batch Recorder::Drain() of the whole run would have produced
// them), and no event with time < F will ever arrive later. Consumers
// therefore see, at each OnFrontier(F), precisely the time-sorted prefix
// {e : e.time < F} of the final batch capture — which is what makes
// an incremental ledger provably equivalent to the batch one at every
// window boundary (DESIGN.md §14).
//
// Ordering argument. Recorder::Drain() stable-sorts by time and the
// engine funnels every event through rings whose record order is
// preserved per drain. The dispatcher stable-sorts the concatenation of
// successive drains; because each drain is itself time-sorted with
// same-time record order intact, and the frontier contract forbids late
// events below an already-announced frontier, the emitted prefix is
// identical to the batch sort. Events at or above the frontier are
// retained (bounded by one window of traffic), never re-ordered against
// later arrivals at the same time.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/event.h"
#include "telemetry/recorder.h"

namespace ecostore::telemetry {

/// End-of-run marker handed to consumers: the final sim time plus the
/// measured meter energies (the reconciliation targets the engine only
/// knows after FinalizeRun()).
struct StreamFinal {
  SimTime at = 0;
  double enclosure_energy_j = 0.0;
  double controller_energy_j = 0.0;
  bool has_energy = false;
};

/// \brief Interface for incremental consumers of the telemetry stream.
class StreamConsumer {
 public:
  virtual ~StreamConsumer() = default;

  /// One event, delivered in batch-drain order (see file header).
  virtual void OnEvent(const Event& event) = 0;

  /// All events with time < `frontier` have been delivered; none will
  /// follow. Frontiers are strictly increasing across calls.
  virtual void OnFrontier(SimTime frontier) = 0;

  /// The run is over: every event has been delivered (no frontier bound)
  /// and `final` carries the measured energies for reconciliation.
  virtual void OnFinish(const StreamFinal& final) = 0;
};

/// \brief Fans the incrementally drained stream out to consumers.
///
/// Owns the reorder buffer that turns per-pump ring drains into the
/// global batch order. Not thread-safe: the engine pumps from the replay
/// thread only, with writers quiescent — the same contract as
/// Recorder::Drain().
class StreamDispatcher {
 public:
  /// Registers a consumer (not owned). Call before the first Pump().
  void AddConsumer(StreamConsumer* consumer);

  /// Drains `recorder` into the reorder buffer, then advances to
  /// `frontier` (see AdvanceFrontier). Resets the recorder rings, so when
  /// a full capture is also wanted, attach a CaptureBuffer consumer.
  void Pump(Recorder* recorder, SimTime frontier);

  /// Emits every buffered event with time < `frontier` to all consumers
  /// (event-major, consumers in registration order), then announces the
  /// frontier. Frontiers below the current one are ignored.
  void AdvanceFrontier(SimTime frontier);

  /// Final pump: emits everything left in the buffer (no frontier bound)
  /// and forwards `final` to every consumer. Idempotent.
  void Finish(const StreamFinal& final);

  SimTime frontier() const { return frontier_; }
  size_t pending() const { return pending_.size(); }
  bool has_consumers() const { return !consumers_.empty(); }
  bool finished() const { return finished_; }

 private:
  void Emit(const Event& event);

  std::vector<StreamConsumer*> consumers_;
  std::vector<Event> pending_;  ///< retained events >= last frontier
  std::vector<Event> scratch_;  ///< reused drain target
  SimTime frontier_ = 0;
  bool finished_ = false;
};

/// \brief Consumer that re-materializes the full capture.
///
/// Streaming pumps reset the recorder rings mid-run, so engines that also
/// export a complete JSONL capture accumulate it here instead of via a
/// final Drain().
class CaptureBuffer : public StreamConsumer {
 public:
  void OnEvent(const Event& event) override { events_.push_back(event); }
  void OnFrontier(SimTime) override {}
  void OnFinish(const StreamFinal&) override {}

  const std::vector<Event>& events() const { return events_; }
  std::vector<Event> Take() { return std::move(events_); }

 private:
  std::vector<Event> events_;
};

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_STREAM_CONSUMER_H_
