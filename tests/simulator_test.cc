// Unit tests for the discrete-event simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sim/simulator.h"

namespace ecostore::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(300, [&] { order.push_back(3); });
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.ScheduleAt(200, [&] { order.push_back(2); });
  EXPECT_EQ(sim.RunAll(), 3);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 300);
}

TEST(SimulatorTest, SameTimeFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, PastTimesClampToNow) {
  Simulator sim;
  sim.ScheduleAt(100, [] {});
  sim.RunAll();
  bool ran = false;
  sim.ScheduleAt(10, [&] { ran = true; });  // in the past
  sim.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.Now(), 100);  // clock never goes backwards
}

TEST(SimulatorTest, ScheduleAfterUsesDelay) {
  Simulator sim;
  sim.ScheduleAt(100, [] {});
  sim.RunAll();
  SimTime fired_at = -1;
  sim.ScheduleAfter(50, [&] { fired_at = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.ScheduleAt(100, [&] { fired.push_back(100); });
  sim.ScheduleAt(200, [&] { fired.push_back(200); });
  sim.ScheduleAt(300, [&] { fired.push_back(300); });
  EXPECT_EQ(sim.RunUntil(200), 2);  // events at exactly the deadline fire
  EXPECT_EQ(fired, (std::vector<SimTime>{100, 200}));
  EXPECT_EQ(sim.Now(), 200);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_EQ(sim.RunUntil(1000), 1);
}

TEST(SimulatorTest, RunUntilAdvancesClockThroughIdleSpans) {
  Simulator sim;
  sim.RunUntil(5000);
  EXPECT_EQ(sim.Now(), 5000);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.ScheduleAt(100, [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_EQ(sim.PendingEvents(), 0u);
  sim.RunAll();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelUnknownIdIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(0));
  EXPECT_FALSE(sim.Cancel(999));
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  EventId id = sim.ScheduleAt(10, [] {});
  sim.RunAll();
  // The slot's generation was bumped when the event fired, so the stale
  // id no longer matches and must not disturb pending-event accounting.
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, StaleIdNeverCancelsSlotReuse) {
  Simulator sim;
  EventId first = sim.ScheduleAt(100, [] {});
  EXPECT_TRUE(sim.Cancel(first));
  // The freed slot is reused by the next schedule; the old id must be
  // stale even though it points at the same slot.
  bool ran = false;
  sim.ScheduleAt(100, [&] { ran = true; });
  EXPECT_FALSE(sim.Cancel(first));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunAll();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, DoubleCancelCountsOnce) {
  Simulator sim;
  EventId id = sim.ScheduleAt(100, [] {});
  sim.ScheduleAt(200, [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_EQ(sim.RunAll(), 1);
}

// Exercises the tombstone machinery the way the storage system does at
// scale: interleaved schedule/cancel/re-schedule bursts, with FIFO order
// among same-time survivors and exact PendingEvents() throughout.
TEST(SimulatorTest, CancelHeavyChurnKeepsFifoAndAccounting) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  std::vector<int> expected;
  int label = 0;
  // Three waves: schedule a burst, cancel every other event of the wave,
  // then re-schedule replacements at the same times (later FIFO rank).
  for (int wave = 0; wave < 3; ++wave) {
    ids.clear();
    std::vector<int> survivors;
    for (int i = 0; i < 40; ++i) {
      SimTime when = 1000 * (wave + 1) + (i % 4);
      int tag = label++;
      ids.push_back(sim.ScheduleAt(when, [&order, tag] {
        order.push_back(tag);
      }));
      survivors.push_back(tag);
    }
    size_t before = sim.PendingEvents();
    for (size_t i = 0; i < ids.size(); i += 2) {
      EXPECT_TRUE(sim.Cancel(ids[i]));
      EXPECT_FALSE(sim.Cancel(ids[i]));  // double-cancel is a no-op
    }
    EXPECT_EQ(sim.PendingEvents(), before - ids.size() / 2);
    std::vector<std::pair<SimTime, int>> keep;
    for (size_t i = 1; i < survivors.size(); i += 2) {
      keep.push_back({1000 * (wave + 1) + (i % 4),
                      survivors[i]});
    }
    // Replacements land after the survivors in same-time FIFO order.
    for (int i = 0; i < 20; ++i) {
      SimTime when = 1000 * (wave + 1) + (i % 4);
      int tag = label++;
      sim.ScheduleAt(when, [&order, tag] { order.push_back(tag); });
      keep.push_back({when, tag});
    }
    std::stable_sort(keep.begin(), keep.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& [when, tag] : keep) expected.push_back(tag);
  }
  EXPECT_EQ(sim.PendingEvents(), 3u * 40u);
  EXPECT_EQ(sim.RunAll(), 3 * 40);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, NextEventTimeTracksHeapTop) {
  Simulator sim;
  EXPECT_EQ(sim.NextEventTime(), kNoPendingEvent);
  sim.ScheduleAt(200, [] {});
  EventId early = sim.ScheduleAt(100, [] {});
  EXPECT_EQ(sim.NextEventTime(), 100);
  // Cancellation tombstones the entry in place, so NextEventTime() is a
  // lower bound: it may still report the cancelled top, but must never
  // be later than the earliest live event.
  sim.Cancel(early);
  EXPECT_LE(sim.NextEventTime(), 200);
  EXPECT_EQ(sim.RunAll(), 1);
  EXPECT_EQ(sim.NextEventTime(), kNoPendingEvent);
}

TEST(SimulatorTest, AdvanceToMovesClockForwardOnly) {
  Simulator sim;
  sim.AdvanceTo(500);
  EXPECT_EQ(sim.Now(), 500);
  sim.AdvanceTo(100);  // backwards is a no-op
  EXPECT_EQ(sim.Now(), 500);
  // Schedules behind the advanced clock clamp to it, like any past time.
  SimTime fired_at = -1;
  sim.ScheduleAt(100, [&] { fired_at = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(fired_at, 500);
}

TEST(SimulatorTest, ReservePreservesOrderAndAccounting) {
  Simulator sim;
  sim.Reserve(2048);
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    sim.ScheduleAt(1000 - i, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.PendingEvents(), 1000u);
  EXPECT_EQ(sim.RunAll(), 1000);
  // Descending schedule times mean the labels come back reversed.
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], 999 - i);
  EXPECT_EQ(sim.Now(), 1000);
}

// Randomized differential test: interleaved ScheduleAt / Cancel /
// AdvanceTo / RunUntil against a brutally simple reference model (a flat
// vector kept in schedule order), under enough churn that slots recycle
// constantly. Catches any divergence in FIFO order, tombstone handling
// or pending-event accounting.
TEST(SimulatorTest, RandomizedChurnMatchesReferenceModel) {
  Simulator sim;
  Xoshiro256 rng(99);
  struct ModelEvent {
    SimTime when;
    uint64_t seq;
    int tag;
    EventId id;
  };
  struct Reservation {
    uint64_t seq;
    int tag;
  };
  std::vector<ModelEvent> pending;
  std::vector<Reservation> reserved;  // seqs taken, not scheduled yet
  std::vector<EventId> stale;
  std::vector<int> fired, expected;
  SimTime model_now = 0;
  uint64_t model_seq = 0;  // mirrors the engine's insertion counter
  int label = 0;
  auto schedule = [&](SimTime when, uint64_t seq, int tag, bool reserved_seq) {
    auto cb = [&fired, tag] { fired.push_back(tag); };
    EventId id = reserved_seq ? sim.ScheduleAt(when, seq, cb)
                              : sim.ScheduleAt(when, cb);
    pending.push_back(ModelEvent{when, seq, tag, id});
  };
  // Eligible events fire in (when, seq) order.
  auto by_key = [](const ModelEvent& a, const ModelEvent& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  };
  for (int round = 0; round < 2000; ++round) {
    int op = static_cast<int>(rng.UniformInt(0, 11));
    if (op < 5) {
      schedule(model_now + rng.UniformInt(0, 50), model_seq++, label++,
               /*reserved_seq=*/false);
    } else if (op < 7) {
      if (!pending.empty() && rng.Bernoulli(0.7)) {
        auto k = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pending.size()) - 1));
        ASSERT_TRUE(sim.Cancel(pending[k].id));
        stale.push_back(pending[k].id);
        pending.erase(pending.begin() + static_cast<ptrdiff_t>(k));
      } else if (!stale.empty()) {
        auto k = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(stale.size()) - 1));
        ASSERT_FALSE(sim.Cancel(stale[k]));
      }
    } else if (op == 7) {
      model_now += rng.UniformInt(0, 20);
      sim.AdvanceTo(model_now);
      ASSERT_EQ(sim.Now(), model_now);
    } else if (op < 10) {
      SimTime deadline = model_now + rng.UniformInt(0, 40);
      std::vector<ModelEvent> due;
      std::vector<ModelEvent> rest;
      for (const ModelEvent& e : pending) {
        (e.when <= deadline ? due : rest).push_back(e);
      }
      std::sort(due.begin(), due.end(), by_key);
      ASSERT_EQ(sim.RunUntil(deadline),
                static_cast<int64_t>(due.size()));
      for (const ModelEvent& e : due) expected.push_back(e.tag);
      pending = std::move(rest);
      model_now = deadline;
      ASSERT_EQ(sim.Now(), model_now);
      ASSERT_EQ(fired, expected);
    } else if (op == 10) {
      ASSERT_EQ(sim.ReserveSeq(), model_seq);
      reserved.push_back(Reservation{model_seq++, label++});
    } else if (!reserved.empty()) {
      auto k = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(reserved.size()) - 1));
      schedule(model_now + rng.UniformInt(0, 50), reserved[k].seq,
               reserved[k].tag, /*reserved_seq=*/true);
      reserved.erase(reserved.begin() + static_cast<ptrdiff_t>(k));
    }
    ASSERT_EQ(sim.PendingEvents(), pending.size());
  }
  std::sort(pending.begin(), pending.end(), by_key);
  ASSERT_EQ(sim.RunAll(), static_cast<int64_t>(pending.size()));
  for (const ModelEvent& e : pending) expected.push_back(e.tag);
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, ReservedSeqKeepsItsPlaceAmongSameTimeEvents) {
  Simulator sim;
  std::vector<char> order;
  uint64_t seq = sim.ReserveSeq();
  sim.ScheduleAt(10, [&] { order.push_back('a'); });
  sim.ScheduleAt(10, [&] { order.push_back('b'); });
  // Scheduled last, but under the seq reserved before 'a' and 'b'.
  sim.ScheduleAt(10, seq, [&] { order.push_back('r'); });
  sim.ScheduleAt(5, [&] { order.push_back('e'); });
  EXPECT_EQ(sim.stats().scheduled, 4);  // the reservation is not counted
  EXPECT_EQ(sim.RunAll(), 4);
  EXPECT_EQ(order, (std::vector<char>{'e', 'r', 'a', 'b'}));

  // A seq reserved after 'c' still orders after it at equal times.
  order.clear();
  sim.ScheduleAt(20, [&] { order.push_back('c'); });
  uint64_t late = sim.ReserveSeq();
  sim.ScheduleAt(20, late, [&] { order.push_back('r'); });
  EXPECT_EQ(sim.RunAll(), 2);
  EXPECT_EQ(order, (std::vector<char>{'c', 'r'}));
  EXPECT_EQ(sim.stats().scheduled, 6);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.ScheduleAfter(10, chain);
  };
  sim.ScheduleAt(0, chain);
  EXPECT_EQ(sim.RunAll(), 10);
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), 90);
}

TEST(SimulatorTest, RunUntilWithRecurringEventStaysBounded) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    count++;
    sim.ScheduleAfter(100, tick);
  };
  sim.ScheduleAfter(100, tick);
  sim.RunUntil(1000);
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(SimulatorTest, StatsTrackHeapDepthTombstonesAndCounts) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(sim.ScheduleAt(i, [] {}));
  Simulator::Stats s = sim.stats();
  EXPECT_EQ(s.scheduled, 10);
  EXPECT_EQ(s.live_events, 10u);
  EXPECT_EQ(s.heap_entries, 10u);
  EXPECT_EQ(s.peak_heap_depth, 10u);
  EXPECT_EQ(s.tombstones, 0u);
  EXPECT_EQ(s.cancelled, 0);

  EXPECT_TRUE(sim.Cancel(ids[3]));
  EXPECT_TRUE(sim.Cancel(ids[7]));
  s = sim.stats();
  EXPECT_EQ(s.cancelled, 2);
  EXPECT_EQ(s.live_events, 8u);
  EXPECT_EQ(s.heap_entries, 10u);  // tombstones still parked in the heap
  EXPECT_EQ(s.tombstones, 2u);

  EXPECT_EQ(sim.RunAll(), 8);
  s = sim.stats();
  EXPECT_EQ(s.executed, 8);
  EXPECT_EQ(s.live_events, 0u);
  EXPECT_EQ(s.heap_entries, 0u);
  EXPECT_EQ(s.peak_heap_depth, 10u);  // the high-water mark survives
}

}  // namespace
}  // namespace ecostore::sim
