#include "telemetry/stream_consumer.h"

#include <algorithm>

namespace ecostore::telemetry {

namespace {

void SortByTime(std::vector<Event>* events) {
  std::stable_sort(events->begin(), events->end(),
                   [](const Event& a, const Event& b) {
                     return a.time < b.time;
                   });
}

}  // namespace

void StreamDispatcher::AddConsumer(StreamConsumer* consumer) {
  if (consumer != nullptr) consumers_.push_back(consumer);
}

void StreamDispatcher::Pump(Recorder* recorder, SimTime frontier) {
  if (recorder != nullptr) {
    recorder->DrainInto(&scratch_);
    pending_.insert(pending_.end(), scratch_.begin(), scratch_.end());
  }
  AdvanceFrontier(frontier);
}

void StreamDispatcher::AdvanceFrontier(SimTime frontier) {
  if (finished_ || frontier <= frontier_) return;
  // The concatenation of time-sorted drain segments; one stable sort
  // restores the global batch order (same-time record order is the
  // segment order, which matches the single-drain order because record
  // order per thread buffer is preserved across drains).
  SortByTime(&pending_);
  size_t emit = 0;
  while (emit < pending_.size() && pending_[emit].time < frontier) ++emit;
  for (size_t i = 0; i < emit; ++i) Emit(pending_[i]);
  pending_.erase(pending_.begin(), pending_.begin() + static_cast<ptrdiff_t>(emit));
  frontier_ = frontier;
  for (StreamConsumer* consumer : consumers_) consumer->OnFrontier(frontier);
}

void StreamDispatcher::Finish(const StreamFinal& final) {
  if (finished_) return;
  SortByTime(&pending_);
  for (const Event& event : pending_) Emit(event);
  pending_.clear();
  if (final.at > frontier_) frontier_ = final.at;
  finished_ = true;
  for (StreamConsumer* consumer : consumers_) consumer->OnFinish(final);
}

void StreamDispatcher::Emit(const Event& event) {
  for (StreamConsumer* consumer : consumers_) consumer->OnEvent(event);
}

}  // namespace ecostore::telemetry
