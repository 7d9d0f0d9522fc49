// A minimal fixed-size thread pool. Its users: the interpreter's parallel
// launches and the traced estimation driver (one task per work-group
// batch), the compile service's request workers (which also run each cold
// compile's forked per-variant tail), and the serving layer's workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace grover {

/// Fixed-size pool. Tasks are void() callables; waitIdle() blocks until the
/// queue is drained and every worker is idle, which is how the runtime
/// implements clFinish-style synchronization.
///
/// A task that throws does not kill the process: the first exception is
/// captured and rethrown from the next waitIdle() call (later exceptions
/// from the same batch are dropped). Remaining queued tasks still run. An
/// exception that was never observed by waitIdle() is discarded when the
/// pool is destroyed.
class ThreadPool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);

  /// Block until all submitted tasks have finished. Rethrows the first
  /// exception any task threw since the previous waitIdle(); the pool
  /// remains usable afterwards.
  void waitIdle();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_exception_;
};

}  // namespace grover
