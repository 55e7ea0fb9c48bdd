#ifndef ECOSTORE_SIM_SIMULATOR_H_
#define ECOSTORE_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/sim_time.h"

namespace ecostore::sim {

/// Identifier of a scheduled event, usable for cancellation. Encodes a
/// slot index and a generation; 0 is never a valid id.
using EventId = uint64_t;

/// Sentinel returned by NextEventTime() when the queue is empty.
inline constexpr SimTime kNoPendingEvent = std::numeric_limits<SimTime>::max();

/// \brief Single-threaded discrete-event simulator.
///
/// Events are callbacks scheduled at absolute simulated times and executed
/// in (time, insertion-order) order, so simultaneous events run FIFO and
/// every run is deterministic. The storage array, cache flush timers,
/// policy periods and the trace replayer all share one Simulator.
///
/// The binary heap holds 24-byte POD entries — the (when, seq) ordering
/// key plus a slot index — so every push_heap/pop_heap sift moves three
/// words instead of a 48+-byte entry carrying a std::function. Callbacks
/// are parked once in the generation-tagged slot slab at schedule time
/// and stay there until their entry pops; sifts never touch them.
///
/// Cancellation is O(1) and probe-free: every heap entry references a
/// slot in the slab. Cancel() flips the slot's tombstone bit in place;
/// the pop loop discards tombstoned entries with one indexed load
/// instead of a hash-set lookup, so the hot pop path costs nothing when
/// no cancellations are outstanding.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Monotonically non-decreasing.
  SimTime Now() const { return now_; }

  /// Schedules `cb` at absolute time `when`. Times in the past are clamped
  /// to Now(). Returns an id usable with Cancel().
  EventId ScheduleAt(SimTime when, Callback cb);

  /// Schedules `cb` after `delay` (>= 0) from Now().
  EventId ScheduleAfter(SimDuration delay, Callback cb);

  /// Cancels a pending event. Returns true if the event existed and had not
  /// fired yet. Cancelling an already-fired, already-cancelled or unknown
  /// id is a no-op returning false.
  bool Cancel(EventId id);

  /// Runs events until the queue drains or the next event lies beyond
  /// `deadline`. Events scheduled exactly at the deadline still run. On
  /// return the clock is min(deadline, quiescence time). Returns the number
  /// of events executed.
  int64_t RunUntil(SimTime deadline);

  /// Runs all pending events to quiescence.
  int64_t RunAll();

  /// Timestamp of the earliest entry still in the heap, or kNoPendingEvent
  /// when the heap is empty. The entry may be a cancelled-but-unpopped
  /// tombstone, so this is a *lower bound* on the next live event's time:
  /// if NextEventTime() > t, RunUntil(t) is guaranteed to execute nothing,
  /// which is exactly the test the batched replay loop needs.
  SimTime NextEventTime() const {
    return queue_.empty() ? kNoPendingEvent : queue_.front().when;
  }

  /// Advances the clock to `t` without running anything (no-op when `t`
  /// is in the past). The replay hot path calls it after checking
  /// NextEventTime() > t, so skipping the heap is free. Events already
  /// scheduled at exactly `t` still fire on the next RunUntil(t) —
  /// AdvanceTo never skips them.
  void AdvanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Pre-sizes the heap and the slot slab for `events` concurrently
  /// pending events, so steady-state scheduling never reallocates.
  void Reserve(size_t events);

  /// Number of events currently pending (cancelled events excluded).
  size_t PendingEvents() const { return live_; }

  /// Lifetime counters and current queue health, cheap enough to sample
  /// at every period boundary (all fields are plain loads).
  struct Stats {
    size_t live_events = 0;      ///< pending, not cancelled
    size_t heap_entries = 0;     ///< in-heap entries incl. tombstones
    size_t tombstones = 0;       ///< cancelled-but-unpopped entries
    size_t peak_heap_depth = 0;  ///< max heap_entries ever observed
    int64_t scheduled = 0;       ///< total ScheduleAt/ScheduleAfter calls
    int64_t cancelled = 0;       ///< successful Cancel() calls
    int64_t executed = 0;        ///< callbacks actually run
  };

  Stats stats() const {
    Stats s;
    s.live_events = live_;
    s.heap_entries = queue_.size();
    s.tombstones = queue_.size() - live_;
    s.peak_heap_depth = peak_heap_depth_;
    s.scheduled = scheduled_;
    s.cancelled = cancelled_;
    s.executed = executed_;
    return s;
  }

 private:
  /// Trivially copyable heap entry: the 16-byte (when, seq) ordering key
  /// plus the slot holding the callback. Sifts copy these 24 bytes; the
  /// callback itself never moves after ScheduleAt parks it in the slab.
  struct HeapEntry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<HeapEntry>);

  /// One slab slot per in-heap entry, owning the parked callback. The
  /// generation distinguishes the current entry from stale ids that
  /// referenced an earlier occupant; the tombstone marks a
  /// cancelled-but-not-yet-popped entry.
  struct Slot {
    Callback cb;
    uint32_t generation = 0;
    bool cancelled = false;
  };

  /// Min-heap order on (when, seq): true when `a` fires after `b`.
  static bool Later(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  static EventId EncodeId(uint32_t slot, uint32_t generation) {
    return (static_cast<EventId>(slot + 1) << 32) | generation;
  }

  /// Removes and returns the earliest entry (queue must be non-empty).
  HeapEntry PopTop();

  /// Releases an entry's slot back to the free list, destroying the
  /// parked callback and bumping the generation so outstanding ids for
  /// it go stale.
  void ReleaseSlot(uint32_t slot);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;
  size_t peak_heap_depth_ = 0;
  int64_t scheduled_ = 0;
  int64_t cancelled_ = 0;
  int64_t executed_ = 0;
  std::vector<HeapEntry> queue_;  ///< binary heap ordered by Later()
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace ecostore::sim

#endif  // ECOSTORE_SIM_SIMULATOR_H_
