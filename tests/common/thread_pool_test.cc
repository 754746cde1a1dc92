#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace eva {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPoolTest, WaitBlocksUntilAllDone) {
  ThreadPool pool(2);
  std::vector<int> results(50, 0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    pool.Submit([&results, i] { results[i] = static_cast<int>(i) + 1; });
  }
  pool.Wait();
  // After Wait, every slot must be written — no synchronization needed.
  const int sum = std::accumulate(results.begin(), results.end(), 0);
  EXPECT_EQ(sum, 50 * 51 / 2);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait: the destructor must still run everything already queued.
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
  EXPECT_EQ(pool.num_threads(), ThreadPool::DefaultThreads());
}

}  // namespace
}  // namespace eva
