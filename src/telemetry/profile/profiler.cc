#include "telemetry/profile/profiler.h"

#ifndef ECOSTORE_PROFILE_DISABLED

#include <algorithm>

namespace ecostore::telemetry::profile {

namespace {

/// Per-thread binding cache: re-binding is just two loads when the same
/// (thread, profiler) pair records repeatedly — the common case, since
/// one engine runs on one thread.
struct ThreadBinding {
  const void* profiler = nullptr;
  void* ring = nullptr;
};
thread_local ThreadBinding t_binding;

/// The thread's active span sink and correlation id. Both are
/// thread-local rather than per-profiler so interior phases (core/
/// planning code) need no plumbing: a ScopedPhase reads them directly.
thread_local Profiler* t_profiler = nullptr;
thread_local uint32_t t_seq = 0;

}  // namespace

Profiler* SetThreadProfiler(Profiler* profiler) {
  Profiler* previous = t_profiler;
  t_profiler = profiler;
  return previous;
}

Profiler* ThreadProfiler() { return t_profiler; }

uint32_t SetThreadCorrelation(uint32_t seq) {
  uint32_t previous = t_seq;
  t_seq = seq;
  return previous;
}

uint32_t ThreadCorrelation() { return t_seq; }

Profiler::Profiler(const Options& options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {
  if (options_.thread_ring_capacity == 0) {
    options_.thread_ring_capacity = 1;
  }
}

Profiler::~Profiler() {
  // Invalidate the calling thread's caches if they point at us; stale
  // caches on *other* threads are the caller's lifetime bug (writers
  // must not outlive the profiler), same contract as Drain().
  if (t_binding.profiler == this) t_binding = ThreadBinding{};
  if (t_profiler == this) t_profiler = nullptr;
}

Profiler::ThreadRing* Profiler::BindThisThread() {
  std::lock_guard<std::mutex> lock(mu_);
  std::thread::id self = std::this_thread::get_id();
  for (const auto& ring : rings_) {
    if (ring->owner == self) {
      t_binding = ThreadBinding{this, ring.get()};
      return ring.get();
    }
  }
  rings_.push_back(std::make_unique<ThreadRing>());
  ThreadRing* ring = rings_.back().get();
  ring->owner = self;
  t_binding = ThreadBinding{this, ring};
  return ring;
}

void Profiler::Record(const Span& span) {
  ThreadRing* ring;
  if (t_binding.profiler == this) {
    ring = static_cast<ThreadRing*>(t_binding.ring);
  } else {
    ring = BindThisThread();
  }
  // Single-writer counter: plain load + store, no locked RMW — only the
  // owning thread writes it, and readers sum through the atomic.
  ring->recorded.store(ring->recorded.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  if (ring->spans.size() < options_.thread_ring_capacity) {
    ring->spans.push_back(span);
    return;
  }
  // Ring is at capacity: overwrite the oldest entry in place (branch
  // wrap, no divide — same hot-path shape as the event recorder).
  ring->spans[ring->head] = span;
  if (++ring->head == ring->spans.size()) ring->head = 0;
  ring->wrapped = true;
  ring->dropped.store(ring->dropped.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
}

uint64_t Profiler::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->recorded.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Profiler::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<Span> Profiler::Drain() {
  std::vector<Span> merged;
  DrainInto(&merged);
  return merged;
}

void Profiler::DrainInto(std::vector<Span>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span>& merged = *out;
  merged.clear();
  size_t total = 0;
  for (const auto& ring : rings_) total += ring->spans.size();
  merged.reserve(total);
  for (const auto& ring : rings_) {
    if (ring->wrapped) {
      // Oldest surviving span sits at head; unroll the ring.
      merged.insert(merged.end(),
                    ring->spans.begin() + static_cast<ptrdiff_t>(ring->head),
                    ring->spans.end());
      merged.insert(merged.end(), ring->spans.begin(),
                    ring->spans.begin() + static_cast<ptrdiff_t>(ring->head));
    } else {
      merged.insert(merged.end(), ring->spans.begin(), ring->spans.end());
    }
    ring->spans.clear();
    ring->head = 0;
    ring->wrapped = false;
  }
  // Stable start order: ties keep per-thread record order, so a parent
  // span closed after its children still sorts by its earlier start and
  // the analyzer's nesting sweep sees parents first.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Span& a, const Span& b) {
                     return a.start_ns < b.start_ns;
                   });
}

}  // namespace ecostore::telemetry::profile

#endif  // ECOSTORE_PROFILE_DISABLED
