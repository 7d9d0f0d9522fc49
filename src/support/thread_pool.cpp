#include "support/thread_pool.h"

#include <algorithm>
#include <utility>

namespace grover {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
    waiting_.store(queue_.size(), std::memory_order_relaxed);
  }
  cv_task_.notify_one();
}

void ThreadPool::offer(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    spare_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::waitIdle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] {
    return queue_.empty() && spare_.empty() && active_ == 0;
  });
  if (first_exception_ != nullptr) {
    std::exception_ptr e = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] {
        return stopping_ || !queue_.empty() || !spare_.empty();
      });
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop();
        waiting_.store(queue_.size(), std::memory_order_relaxed);
      } else if (!spare_.empty()) {
        task = std::move(spare_.front());
        spare_.pop();
      } else {
        return;  // stopping, and both lanes are drained
      }
      ++active_;
    }
    std::exception_ptr thrown;
    try {
      task();
    } catch (...) {
      thrown = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (thrown != nullptr && first_exception_ == nullptr) {
        first_exception_ = thrown;
      }
      --active_;
      if (queue_.empty() && spare_.empty() && active_ == 0) {
        cv_idle_.notify_all();
      }
    }
  }
}

}  // namespace grover
