// A small fixed-size thread pool for running independent experiment
// simulations in parallel.
//
// Deliberately minimal: Submit() enqueues a task, Wait() blocks until every
// submitted task has finished. Tasks must not throw (the pool terminates on
// escaped exceptions, like std::thread does) and must synchronize any shared
// state themselves; the intended usage is embarrassingly-parallel work that
// writes to disjoint result slots.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eva {

class ThreadPool {
 public:
  // num_threads <= 0 selects DefaultThreads().
  explicit ThreadPool(int num_threads = 0);

  // Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has run to completion.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Hardware concurrency, at least 1.
  static int DefaultThreads();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  int in_flight_ = 0;  // Queued + currently executing tasks.
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace eva

#endif  // SRC_COMMON_THREAD_POOL_H_
