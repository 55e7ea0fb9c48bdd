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

Recorder::Recorder(const Options& options)
    : options_(options), mask_(options.mask) {
  if (options_.thread_buffer_capacity == 0) {
    options_.thread_buffer_capacity = 1;
  }
}

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
  if (buffer->events.size() < options_.thread_buffer_capacity) {
    buffer->events.push_back(event);
    return;
  }
  // Ring is at capacity: overwrite the oldest entry in place. Wrap with a
  // predictable branch — a 64-bit divide has no business in this path.
  buffer->events[buffer->head] = event;
  if (++buffer->head == buffer->events.size()) buffer->head = 0;
  buffer->wrapped = true;
  buffer->dropped.store(buffer->dropped.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
}

uint64_t Recorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->recorded.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Recorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->dropped.load(std::memory_order_relaxed);
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
  std::vector<Event>& merged = *out;
  merged.clear();
  size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->events.size();
  merged.reserve(total);
  for (const auto& buffer : buffers_) {
    if (buffer->wrapped) {
      // Oldest surviving event sits at head; unroll the ring.
      merged.insert(merged.end(), buffer->events.begin() +
                                      static_cast<ptrdiff_t>(buffer->head),
                    buffer->events.end());
      merged.insert(merged.end(), buffer->events.begin(),
                    buffer->events.begin() +
                        static_cast<ptrdiff_t>(buffer->head));
    } else {
      merged.insert(merged.end(), buffer->events.begin(),
                    buffer->events.end());
    }
    buffer->events.clear();
    buffer->head = 0;
    buffer->wrapped = false;
  }
  // Stable sort by time: events at one timestamp keep their per-thread
  // record order, so a single-threaded run drains in exactly the order it
  // recorded.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Event& a, const Event& b) {
                     return a.time < b.time;
                   });
}

std::vector<LogLine> Recorder::DrainLogs() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LogLine> out;
  out.swap(logs_);
  return out;
}

Counter* Recorder::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing, ptr] : counters_) {
    if (existing == name) return ptr.get();
  }
  counters_.emplace_back(name, std::make_unique<Counter>());
  return counters_.back().second.get();
}

Gauge* Recorder::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing, ptr] : gauges_) {
    if (existing == name) return ptr.get();
  }
  gauges_.emplace_back(name, std::make_unique<Gauge>());
  return gauges_.back().second.get();
}

std::vector<std::pair<std::string, int64_t>> Recorder::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, int64_t>> Recorder::GaugeValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  return out;
}

void Recorder::WriteLog(LogLevel level, SimTime sim_time, const char* file,
                        int line, const std::string& message) {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(LogLine{level, sim_time, file, line, message});
}

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_DISABLED
