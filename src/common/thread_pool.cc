#include "common/thread_pool.h"

#include <algorithm>

namespace ecostore {

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    queue_.clear();
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

size_t ThreadPool::QueuedTasks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (shutting_down_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // packaged_task catches the task's exceptions and stores them in the
    // future, so this call never throws out of the worker.
    task();
  }
}

}  // namespace ecostore
