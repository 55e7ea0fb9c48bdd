// Tests for the worker pool used by the parallel experiment runner.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ecostore {
namespace {

TEST(ThreadPoolTest, StartsRequestedWorkersAndShutsDownCleanly) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  // Destructor joins; nothing submitted.
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter++; }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsTaskValuesThroughFutures) {
  ThreadPool pool(2);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, PropagatesTaskExceptionsThroughFuture) {
  ThreadPool pool(2);
  std::future<void> boom =
      pool.Submit([]() -> void { throw std::runtime_error("task failed"); });
  EXPECT_THROW(boom.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.Submit([] { return 42; }).get(), 42);
}

TEST(ThreadPoolTest, DestructorDiscardsUnstartedTasks) {
  std::atomic<int> ran{0};
  std::atomic<bool> first_running{false};
  std::atomic<bool> all_queued{false};
  {
    ThreadPool pool(1);
    // The first task occupies the single worker until the queue behind it
    // is empty. With that worker busy, only the destructor can empty the
    // queue, under the lock that marks the pool as shutting down, so the
    // 10 queued tasks must be discarded, not executed.
    pool.Submit([&] {
      first_running = true;
      while (!all_queued) std::this_thread::yield();
      while (pool.QueuedTasks() != 0) std::this_thread::yield();
      ran++;
    });
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&ran] { ran++; });
    }
    all_queued = true;
    while (!first_running) std::this_thread::yield();
  }
  // Destructor joined the in-flight task and dropped the 10 queued ones.
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace ecostore
