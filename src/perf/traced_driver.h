// Streaming trace-driven estimation driver.
//
// Executes a launch's work-groups and feeds every group's trace
// (rt::GroupTrace) through the model's two-phase digest/merge pipeline:
//
//   phase A  execute    any participant, any order -> per-group GroupTrace
//   phase B  digest     per-shard, dense order     -> per-group GroupDigest
//   phase C  merge      serial, dense order        -> cycles
//
// One loop serves every participant count. The calling thread always
// participates; a borrowed ThreadPool may lend helpers. Each participant
// owns one GroupExecutor and one GroupTrace and repeatedly claims the next
// dense group, executes it, waits for its shard's turn, digests it and
// parks the digest in a pending slot. Whoever holds the merge token merges
// the ready dense prefix and frees each digest. No group is claimed more
// than a window of 2x the participant count past the merge cursor, which
// bounds the parked digests.
//
// A model shards its private simulation state (Model::digestShards(); 0
// means digests are stateless and may run anywhere) and keeps everything
// shared — last-level cache, accumulators — inside mergeGroup. Because
// each shard sees its groups in dense order and the merge runs serially in
// dense order, the model state transitions and every floating-point
// accumulation happen in exactly the sequence of a serial run: estimates
// are bit-identical for every participant count (DESIGN.md §7).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "rt/interpreter.h"
#include "rt/trace.h"
#include "support/thread_pool.h"

namespace grover::perf {

/// Host wall time a traced launch spent per phase. The launch's wall time
/// is apportioned between the phases in proportion to their summed busy
/// time over all participants, so the two never sum past the wall time.
struct TracedLaunchTimes {
  double traceMs = 0;   // phase A: executing groups into GroupTraces
  double digestMs = 0;  // phases B and C: digest and merge
};

/// Execute `groups` (in dense order) of `image` and feed every group's
/// trace through `model`'s digest/merge pipeline. The calling thread runs
/// the loop; when `helpers` is non-null, up to helpers->size() of its
/// workers may join. Helpers go to the pool's spare lane
/// (ThreadPool::offer), so they start only on workers no submitted task
/// is waiting for, and a started helper yields its worker between groups
/// as soon as one is (re-offering itself while groups remain). A helper
/// that starts after the launch finished does nothing, and the call
/// returns once every helper that did start has left. So a busy pool
/// leaves the caller to run the launch alone, and the pool is never
/// waited idle.
///
/// `checkpoint` (optional) runs on the calling thread before each group it
/// claims. An exception it throws — or one that runGroup, a digest or a
/// merge throws on any participant — abandons the launch and propagates
/// to the caller after every started helper has left.
template <typename Model>
TracedLaunchTimes runTracedLaunch(
    Model& model, const rt::KernelImage& image,
    const std::vector<std::array<std::uint32_t, 3>>& groups,
    ThreadPool* helpers, const std::function<void()>& checkpoint = {}) {
  using Clock = std::chrono::steady_clock;
  using Digest = typename Model::GroupDigest;
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t n = groups.size();
  const Clock::time_point launchStart = Clock::now();

  // Per-shard turn: the dense group whose digest the shard expects next,
  // and each group's successor within its shard.
  const unsigned shards = model.digestShards();
  std::vector<std::size_t> shardNext(shards, kNone);
  std::vector<std::size_t> successor(shards > 0 ? n : 0, kNone);
  for (std::size_t g = n; g-- > 0 && shards > 0;) {
    const unsigned s = model.shardOf(static_cast<std::uint32_t>(g));
    successor[g] = shardNext[s];
    shardNext[s] = g;
  }

  // Launch state, guarded by `mutex`. Claims stay below
  // mergeCursor + window, so at most `window` digests are ever parked,
  // plus the one being merged.
  const std::size_t offered =
      helpers != nullptr && n > 1 ? std::min(helpers->size(), n - 1) : 0;
  const std::size_t window = 2 * (offered + 1);
  std::mutex mutex;
  std::condition_variable turnChanged;  // a shard turn or the cursor moved
  std::vector<std::unique_ptr<Digest>> pending(n);
  std::size_t next = 0;
  std::size_t mergeCursor = 0;
  bool merging = false;
  bool aborted = false;
  std::exception_ptr error;
  Clock::duration traceBusy{};
  Clock::duration digestBusy{};

  const auto fail = [&](std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!aborted) error = std::move(e);
    aborted = true;
    turnChanged.notify_all();
  };

  // Merge the ready dense prefix unless another participant already holds
  // the merge token; the holder re-checks under the lock before releasing
  // it, so no posted digest is ever stranded.
  const auto mergeReady = [&](std::unique_lock<std::mutex>& lock) {
    if (merging) return;
    merging = true;
    while (!aborted && mergeCursor < n && pending[mergeCursor]) {
      const std::unique_ptr<Digest> digest = std::move(pending[mergeCursor]);
      ++mergeCursor;
      lock.unlock();
      const Clock::time_point start = Clock::now();
      model.mergeGroup(*digest);  // a throw aborts the launch: no more merges
      const Clock::duration took = Clock::now() - start;
      lock.lock();
      digestBusy += took;
      turnChanged.notify_all();  // wakes claims held back by the window
    }
    merging = false;
  };

  // Runs the loop until no group is left, the launch aborts, or (for a
  // helper) a submitted task waits for the worker. Returns whether it
  // yielded with groups still unclaimed.
  const auto participate = [&](bool caller) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!caller && (aborted || next >= n)) return false;
    }
    bool yielded = false;
    Clock::duration traced{};
    Clock::duration digested{};
    try {
      rt::GroupExecutor exec(image);
      rt::GroupTrace trace;
      exec.setTrace(&trace);
      for (;;) {
        if (caller && checkpoint) checkpoint();
        if (!caller && helpers->hasWaiting()) {
          yielded = true;
          break;
        }
        std::size_t g = 0;
        {
          // The merge cursor always advances: its group is claimed by a
          // running participant or is next to claim (DESIGN.md §7).
          std::unique_lock<std::mutex> lock(mutex);
          turnChanged.wait(lock, [&] {
            return aborted || next >= n || next < mergeCursor + window;
          });
          if (aborted || next >= n) break;
          g = next++;
        }

        Clock::time_point start = Clock::now();
        exec.runGroup(groups[g]);
        traced += Clock::now() - start;

        const unsigned shard = model.shardOf(static_cast<std::uint32_t>(g));
        if (shards > 0) {
          // Every lower group of this shard is held by a running
          // participant, so the wait always ends (DESIGN.md §7).
          std::unique_lock<std::mutex> lock(mutex);
          turnChanged.wait(lock,
                           [&] { return aborted || shardNext[shard] == g; });
          if (aborted) break;
        }
        start = Clock::now();
        Digest digest = model.digestGroup(shard, trace);
        digested += Clock::now() - start;

        std::unique_lock<std::mutex> lock(mutex);
        if (shards > 0) {
          shardNext[shard] = successor[g];
          turnChanged.notify_all();
        }
        pending[g] = std::make_unique<Digest>(std::move(digest));
        mergeReady(lock);
      }
    } catch (...) {
      fail(std::current_exception());
    }
    std::lock_guard<std::mutex> lock(mutex);
    traceBusy += traced;
    digestBusy += digested;
    return yielded && !aborted && next < n;
  };

  // Helpers: each queued task holds the gate, which outlives the launch.
  // A task that finds the gate closed returns without touching the
  // launch's state; the caller closes it once its own loop is done and
  // waits only for the helpers that got in before that. A helper that
  // yielded re-offers itself after leaving the gate.
  struct Gate {
    ThreadPool* pool = nullptr;
    std::mutex mutex;
    std::condition_variable left;
    std::function<bool()> work;  // participate(false) while open
    unsigned inside = 0;
    bool closed = false;

    static void offerHelper(const std::shared_ptr<Gate>& gate) {
      gate->pool->offer([gate] {
        {
          std::lock_guard<std::mutex> lock(gate->mutex);
          if (gate->closed) return;
          ++gate->inside;
        }
        const bool yielded = gate->work();  // never throws
        {
          std::lock_guard<std::mutex> lock(gate->mutex);
          if (--gate->inside == 0) gate->left.notify_all();
        }
        if (!yielded) return;
        try {
          offerHelper(gate);
        } catch (...) {
          // Not re-offered: the launch's other participants finish it.
        }
      });
    }
  };
  std::shared_ptr<Gate> gate;
  const auto closeGate = [&gate] {
    if (gate == nullptr) return;
    std::unique_lock<std::mutex> lock(gate->mutex);
    gate->closed = true;
    gate->left.wait(lock, [&] { return gate->inside == 0; });
    gate->work = nullptr;  // drop the reference into this frame
  };
  if (offered > 0) {
    gate = std::make_shared<Gate>();
    gate->pool = helpers;
    gate->work = [&participate] { return participate(false); };
    try {
      for (std::size_t h = 0; h < offered; ++h) Gate::offerHelper(gate);
    } catch (...) {
      fail(std::current_exception());  // helpers already in leave at once
    }
  }
  participate(true);
  closeGate();
  if (error != nullptr) std::rethrow_exception(error);

  TracedLaunchTimes times;
  const double wallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - launchStart)
          .count();
  const double trace = std::chrono::duration<double>(traceBusy).count();
  const double digest = std::chrono::duration<double>(digestBusy).count();
  if (trace + digest > 0) {
    times.traceMs = wallMs * (trace / (trace + digest));
    times.digestMs = wallMs * (digest / (trace + digest));
  }
  return times;
}

}  // namespace grover::perf
