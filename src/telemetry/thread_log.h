#ifndef ECOSTORE_TELEMETRY_THREAD_LOG_H_
#define ECOSTORE_TELEMETRY_THREAD_LOG_H_

// The per-thread append log under both telemetry instruments: the event
// recorder (sim-time events, keyed by Event::time) and the wall-clock
// phase profiler (spans, keyed by Span::start_ns). Each recording thread
// appends to its own buffer; nothing is ever overwritten, so a drain
// holds everything recorded since the last one.
//
// Thread model: Append() takes no lock once the calling thread's buffer
// is bound (binding takes a mutex once per (thread, log) pair). Drain()
// requires writers to be quiescent.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ecostore::telemetry {

/// \brief Per-thread single-writer buffers of trivially copyable `T`,
/// drained as one stream stably sorted by the member `Key` points at.
template <typename T, auto Key>
class ThreadLog {
 public:
  ThreadLog() = default;
  ~ThreadLog() {
    // Invalidate the calling thread's cache if it points at us; stale
    // caches on *other* threads are the caller's lifetime bug (writers
    // must not outlive the log), same contract as Drain().
    if (t_binding.log == this) t_binding = Binding{};
  }

  ThreadLog(const ThreadLog&) = delete;
  ThreadLog& operator=(const ThreadLog&) = delete;

  /// Appends `item` to the calling thread's buffer.
  void Append(const T& item) {
    Buffer* buffer =
        t_binding.log == this ? t_binding.buffer : BindThisThread();
    // Single-writer counter: plain load + store, no locked RMW — only the
    // owning thread writes it, and readers sum through the atomic.
    buffer->recorded.store(
        buffer->recorded.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    buffer->items.push_back(item);
  }

  /// Items appended so far, summed over all threads (drained or not).
  uint64_t recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& buffer : buffers_) {
      total += buffer->recorded.load(std::memory_order_relaxed);
    }
    return total;
  }

  std::vector<T> Drain() {
    std::vector<T> merged;
    DrainInto(&merged);
    return merged;
  }

  /// Merges every thread's buffer into `*out` (cleared first) and empties
  /// them. The first buffer is swapped with `*out`, so a whole-run drain
  /// holds one copy of the items, and a consumer that drains repeatedly
  /// trades the same two allocations back and forth. The sort is stable:
  /// items with equal keys keep their per-thread append order, so a
  /// single-threaded log drains in exactly the order it was appended.
  void DrainInto(std::vector<T>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    out->clear();
    if (buffers_.empty()) return;
    out->swap(buffers_.front()->items);
    size_t total = out->size();
    for (size_t i = 1; i < buffers_.size(); ++i) {
      total += buffers_[i]->items.size();
    }
    out->reserve(total);
    for (size_t i = 1; i < buffers_.size(); ++i) {
      std::vector<T>& items = buffers_[i]->items;
      out->insert(out->end(), items.begin(), items.end());
      items.clear();
    }
    std::stable_sort(out->begin(), out->end(),
                     [](const T& a, const T& b) { return a.*Key < b.*Key; });
  }

 private:
  struct Buffer {
    std::thread::id owner;
    std::vector<T> items;
    std::atomic<uint64_t> recorded{0};
  };

  /// Per-thread binding cache: finding the buffer is two loads when the
  /// same (thread, log) pair appends repeatedly — the common case, since
  /// one experiment runs on one thread.
  struct Binding {
    const ThreadLog* log = nullptr;
    Buffer* buffer = nullptr;
  };
  static inline constinit thread_local Binding t_binding{};

  Buffer* BindThisThread() {
    std::lock_guard<std::mutex> lock(mu_);
    const std::thread::id self = std::this_thread::get_id();
    Buffer* buffer = nullptr;
    for (const auto& b : buffers_) {
      if (b->owner == self) buffer = b.get();
    }
    if (buffer == nullptr) {
      buffers_.push_back(std::make_unique<Buffer>());
      buffer = buffers_.back().get();
      buffer->owner = self;
    }
    t_binding = Binding{this, buffer};
    return buffer;
  }

  mutable std::mutex mu_;  ///< guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_THREAD_LOG_H_
