#include "telemetry/recorder.h"

#ifndef ECOSTORE_TELEMETRY_DISABLED

#include <algorithm>

namespace ecostore::telemetry {

namespace {

/// Per-thread binding cache: re-binding is just two loads when the same
/// (thread, recorder) pair records repeatedly — the common case, since
/// one experiment runs on one thread.
struct ThreadBinding {
  const void* recorder = nullptr;
  void* buffer = nullptr;
};
thread_local ThreadBinding t_binding;

}  // namespace

Recorder::~Recorder() {
  // Invalidate the calling thread's cache if it points at us; stale
  // caches on *other* threads are the caller's lifetime bug (writers
  // must not outlive the recorder), same contract as Drain().
  if (t_binding.recorder == this) t_binding = ThreadBinding{};
}

Recorder::ThreadBuffer* Recorder::BindThisThread() {
  std::lock_guard<std::mutex> lock(mu_);
  std::thread::id self = std::this_thread::get_id();
  for (const auto& buffer : buffers_) {
    if (buffer->owner == self) {
      t_binding = ThreadBinding{this, buffer.get()};
      return buffer.get();
    }
  }
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* buffer = buffers_.back().get();
  buffer->owner = self;
  t_binding = ThreadBinding{this, buffer};
  return buffer;
}

void Recorder::Record(const Event& event) {
  ThreadBuffer* buffer;
  if (t_binding.recorder == this) {
    buffer = static_cast<ThreadBuffer*>(t_binding.buffer);
  } else {
    buffer = BindThisThread();
  }
  // Single-writer counter: plain load + store, no locked RMW — only the
  // owning thread writes it, and readers sum through the atomic.
  buffer->recorded.store(
      buffer->recorded.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  buffer->events.push_back(event);
}

uint64_t Recorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->recorded.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<Event> Recorder::Drain() {
  std::vector<Event> merged;
  DrainInto(&merged);
  return merged;
}

void Recorder::DrainInto(std::vector<Event>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  out->clear();
  if (buffers_.empty()) return;
  out->swap(buffers_.front()->events);
  size_t total = out->size();
  for (size_t i = 1; i < buffers_.size(); ++i) {
    total += buffers_[i]->events.size();
  }
  out->reserve(total);
  for (size_t i = 1; i < buffers_.size(); ++i) {
    std::vector<Event>& events = buffers_[i]->events;
    out->insert(out->end(), events.begin(), events.end());
    events.clear();
  }
  // Stable sort by time: events at one timestamp keep their per-thread
  // record order, so a single-threaded run drains in exactly the order it
  // recorded.
  std::stable_sort(out->begin(), out->end(),
                   [](const Event& a, const Event& b) {
                     return a.time < b.time;
                   });
}

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_DISABLED
