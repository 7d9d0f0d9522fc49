// Cooperative cancellation of cold service work (DESIGN.md §12).
//
// A CancelToken is one client's "I am gone" flag: the serving layer
// allocates one per connection and sets it when the peer disconnects.
// Because the compile service deduplicates identical requests
// (single-flight), one in-flight compile may have several interested
// waiters; a CancelScope aggregates their tokens so the compile is only
// abandoned when *every* waiter has cancelled. A waiter without a token
// (a plain in-process caller) pins the compile to completion.
//
// Cancellation is polled, not preemptive: the compile pipeline checks
// the scope at stage boundaries (after the front-end, after the
// transform, before each variant's proof and estimate) and between the
// work-groups of each estimate, and abandons the rest. Warm work —
// cache hits, warm policy-path artifact builds — never checks; it is
// cheap and its artifact is exactly what makes the next request warm.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace grover::service {

/// One client's cancellation flag. Written (once, false→true) by the
/// owner when the client goes away; polled by service workers.
using CancelToken = std::shared_ptr<std::atomic<bool>>;

[[nodiscard]] inline CancelToken makeCancelToken() {
  return std::make_shared<std::atomic<bool>>(false);
}

/// Aggregated cancellation state of one single-flight compile: the
/// union of every waiter that joined it. Thread-safe; waiters register
/// under the service lock, workers poll at stage boundaries.
class CancelScope {
 public:
  /// Register one waiter. A null token means "never cancel on my
  /// account" and pins the compile permanently.
  void addWaiter(CancelToken token) {
    std::lock_guard lock(mutex_);
    if (token == nullptr) {
      pinned_ = true;
    } else {
      tokens_.push_back(std::move(token));
    }
  }

  /// True when every registered waiter has cancelled (and at least one
  /// registered with a real token).
  [[nodiscard]] bool cancelled() const {
    std::lock_guard lock(mutex_);
    if (pinned_ || tokens_.empty()) return false;
    for (const CancelToken& token : tokens_) {
      if (!token->load(std::memory_order_relaxed)) return false;
    }
    return true;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<CancelToken> tokens_;
  bool pinned_ = false;
};

using CancelScopePtr = std::shared_ptr<CancelScope>;

}  // namespace grover::service
