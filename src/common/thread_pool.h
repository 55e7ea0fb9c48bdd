#ifndef ECOSTORE_COMMON_THREAD_POOL_H_
#define ECOSTORE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ecostore {

/// \brief Fixed-size pool of worker threads with a single shared FIFO
/// queue.
///
/// Used to run independent (workload, policy) experiments concurrently
/// (replay::ParallelRunSuite). Tasks must not share mutable state unless
/// they synchronise it themselves; the pool only guarantees that a task
/// submitted before another is dequeued no later than it.
///
/// Exceptions thrown by a task are captured in the std::future returned by
/// Submit() and rethrown on future.get(); they never terminate a worker.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  /// Drains nothing: pending tasks that have not started are discarded;
  /// running tasks are joined.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn` and returns a future for its result. The future
  /// rethrows any exception `fn` raised.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return result;
  }

  /// Number of tasks queued but not yet started (diagnostic).
  size_t QueuedTasks() const;

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ecostore

#endif  // ECOSTORE_COMMON_THREAD_POOL_H_
