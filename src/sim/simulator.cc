#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ecostore::sim {

EventId Simulator::ScheduleAt(SimTime when, Callback cb) {
  return ScheduleAt(when, next_seq_++, std::move(cb));
}

EventId Simulator::ScheduleAt(SimTime when, uint64_t seq, Callback cb) {
  assert(seq < next_seq_);
  if (when < now_) when = now_;
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].cb = std::move(cb);
  queue_.push_back(HeapEntry{when, seq, slot});
  std::push_heap(queue_.begin(), queue_.end(), Later);
  live_++;
  scheduled_++;
  if (queue_.size() > peak_heap_depth_) peak_heap_depth_ = queue_.size();
  return EncodeId(slot, slots_[slot].generation);
}

EventId Simulator::ScheduleAfter(SimDuration delay, Callback cb) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(cb));
}

bool Simulator::Cancel(EventId id) {
  uint64_t slot_plus_one = id >> 32;
  if (slot_plus_one == 0 || slot_plus_one > slots_.size()) return false;
  auto slot = static_cast<uint32_t>(slot_plus_one - 1);
  Slot& state = slots_[slot];
  if (state.generation != static_cast<uint32_t>(id)) return false;  // stale
  // A matching generation means the entry is still in the heap: the slot
  // is only released (generation bumped) when its entry pops.
  if (state.cancelled) return false;
  state.cancelled = true;
  live_--;
  cancelled_++;
  return true;
}

void Simulator::Reserve(size_t events) {
  queue_.reserve(events);
  slots_.reserve(events);
  free_slots_.reserve(events);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Slot& state = slots_[slot];
  state.cb = nullptr;
  state.generation++;
  state.cancelled = false;
  free_slots_.push_back(slot);
}

Simulator::HeapEntry Simulator::PopTop() {
  std::pop_heap(queue_.begin(), queue_.end(), Later);
  HeapEntry entry = queue_.back();
  queue_.pop_back();
  return entry;
}

int64_t Simulator::RunUntil(SimTime deadline) {
  int64_t executed = 0;
  while (!queue_.empty()) {
    if (queue_.front().when > deadline) break;
    HeapEntry entry = PopTop();
    Slot& state = slots_[entry.slot];
    if (state.cancelled) {
      ReleaseSlot(entry.slot);
      continue;
    }
    // Move the callback out before releasing: the callback may schedule
    // new events that immediately reuse this slot.
    Callback cb = std::move(state.cb);
    ReleaseSlot(entry.slot);
    live_--;
    now_ = entry.when;
    cb();
    executed++;
    executed_++;
  }
  if (now_ < deadline) {
    // Advance to the deadline so that back-to-back RunUntil calls measure
    // idle spans correctly.
    now_ = deadline;
  }
  return executed;
}

int64_t Simulator::RunAll() {
  int64_t executed = 0;
  while (!queue_.empty()) {
    HeapEntry entry = PopTop();
    Slot& state = slots_[entry.slot];
    if (state.cancelled) {
      ReleaseSlot(entry.slot);
      continue;
    }
    Callback cb = std::move(state.cb);
    ReleaseSlot(entry.slot);
    live_--;
    now_ = entry.when;
    cb();
    executed++;
    executed_++;
  }
  return executed;
}

}  // namespace ecostore::sim
