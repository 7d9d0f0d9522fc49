// Parallel trace-driven estimation driver.
//
// Executes a launch's work-groups in bounded waves across a ThreadPool,
// buffering each group's trace (rt::GroupTrace), then runs the model's
// two-phase digest/merge pipeline:
//
//   phase A  execute    any thread, any order   -> per-group GroupTrace
//   phase B  digest     per-shard, dense order  -> per-group GroupDigest
//   phase C  merge      serial, dense order     -> cycles
//
// A model shards its private simulation state (Model::digestShards(); 0
// means digests are stateless and may run anywhere) and keeps everything
// shared — last-level cache, accumulators — inside mergeGroup. Because
// each shard sees its groups in dense order and the merge runs serially in
// dense order, the model state transitions and every floating-point
// accumulation happen in exactly the sequence of a serial run: estimates
// are bit-identical for every thread count.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "rt/interpreter.h"
#include "rt/trace.h"
#include "support/thread_pool.h"

namespace grover::perf {

/// Host wall time a traced launch spent per phase, checkpoints excluded.
struct TracedLaunchTimes {
  double traceMs = 0;   // phase A: executing groups into GroupTraces
  double digestMs = 0;  // phases B and C: digest and merge
};

/// Execute `groups` (in dense order) of `image` and feed every group's
/// trace through `model`'s digest/merge pipeline using `threads` workers.
/// Returns the time spent in phase A and in phases B+C.
///
/// `checkpoint` (optional) runs on the calling thread before each group
/// (one thread) or each wave (several); an exception it throws abandons
/// the launch and propagates to the caller.
///
/// The worker count is capped at the hardware concurrency: the pipeline is
/// CPU-bound, so oversubscribing only adds timeslicing and cache-thrash
/// cost, and the estimate is bit-identical for every thread count anyway.
template <typename Model>
TracedLaunchTimes runTracedLaunch(
    Model& model, const rt::KernelImage& image,
    const std::vector<std::array<std::uint32_t, 3>>& groups,
    unsigned threads, const std::function<void()>& checkpoint = {}) {
  threads = std::min(threads,
                     std::max(1U, std::thread::hardware_concurrency()));
  using Clock = std::chrono::steady_clock;
  TracedLaunchTimes times;
  const auto addMs = [](double& to, Clock::time_point from,
                        Clock::time_point until) {
    to += std::chrono::duration<double, std::milli>(until - from).count();
  };
  if (threads <= 1) {
    // Inline pipeline: same digest/merge call sequence as the parallel
    // path, one group at a time.
    rt::GroupExecutor exec(image);
    rt::GroupTrace trace;
    exec.setTrace(&trace);
    for (std::size_t dense = 0; dense < groups.size(); ++dense) {
      if (checkpoint) checkpoint();
      const Clock::time_point start = Clock::now();
      exec.runGroup(groups[dense]);
      const Clock::time_point traced = Clock::now();
      model.mergeGroup(model.digestGroup(
          model.shardOf(static_cast<std::uint32_t>(dense)), trace));
      addMs(times.traceMs, start, traced);
      addMs(times.digestMs, traced, Clock::now());
    }
    return times;
  }

  // The calling thread participates in every phase (it runs the same
  // work-stealing loops as the workers), so the pool only needs threads-1
  // workers and the caller never sleeps in waitIdle while work remains.
  std::vector<std::unique_ptr<rt::GroupExecutor>> execs;
  execs.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    execs.push_back(std::make_unique<rt::GroupExecutor>(image));
  }
  ThreadPool pool(threads - 1);
  const unsigned shards = model.digestShards();
  using Digest = typename Model::GroupDigest;
  std::vector<rt::GroupTrace> traces;
  std::vector<Digest> digests;
  std::size_t done = 0;
  std::size_t avgBytes = 0;
  while (done < groups.size()) {
    if (checkpoint) checkpoint();  // no task is in flight here
    const std::size_t wave =
        rt::nextTraceWave(groups.size() - done, threads, avgBytes);
    if (traces.size() < wave) traces.resize(wave);
    digests.clear();
    digests.resize(wave);

    // Phase A: execute the wave's groups into private trace buffers.
    const Clock::time_point start = Clock::now();
    std::atomic<std::size_t> next{0};
    const auto executeLoop = [&](unsigned t) {
      rt::GroupExecutor& exec = *execs[t];
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= wave) return;
        exec.setTrace(&traces[i]);
        exec.runGroup(groups[done + i]);
      }
    };
    for (unsigned t = 1; t < threads; ++t) {
      pool.submit([&executeLoop, t] { executeLoop(t); });
    }
    executeLoop(0);
    pool.waitIdle();
    const Clock::time_point traced = Clock::now();

    // Phase B: digest. Sharded models need each shard's groups digested in
    // dense order on one task (private cache state); stateless models
    // stripe the wave across the pool.
    if (shards > 0) {
      std::vector<std::vector<std::size_t>> perShard(shards);
      for (std::size_t i = 0; i < wave; ++i) {
        perShard[model.shardOf(static_cast<std::uint32_t>(done + i))]
            .push_back(i);
      }
      std::vector<unsigned> jobs;
      for (unsigned s = 0; s < shards; ++s) {
        if (!perShard[s].empty()) jobs.push_back(s);
      }
      std::atomic<std::size_t> nextJob{0};
      const auto digestLoop = [&] {
        for (;;) {
          const std::size_t j = nextJob.fetch_add(1);
          if (j >= jobs.size()) return;
          const unsigned s = jobs[j];
          for (const std::size_t i : perShard[s]) {
            digests[i] = model.digestGroup(s, traces[i]);
          }
        }
      };
      for (unsigned t = 1; t < threads; ++t) {
        pool.submit(digestLoop);
      }
      digestLoop();
      pool.waitIdle();  // before perShard/jobs go out of scope
    } else {
      const auto stripeLoop = [&](unsigned t) {
        for (std::size_t i = t; i < wave; i += threads) {
          digests[i] = model.digestGroup(0, traces[i]);
        }
      };
      for (unsigned t = 1; t < threads; ++t) {
        pool.submit([&stripeLoop, t] { stripeLoop(t); });
      }
      stripeLoop(0);
      pool.waitIdle();
    }

    // Phase C: merge serially in dense order.
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < wave; ++i) {
      model.mergeGroup(digests[i]);
      bytes += traces[i].byteSize();
    }
    addMs(times.traceMs, start, traced);
    addMs(times.digestMs, traced, Clock::now());
    avgBytes = bytes / wave;
    done += wave;
  }
  return times;
}

}  // namespace grover::perf
