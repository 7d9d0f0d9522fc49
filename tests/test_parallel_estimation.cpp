// Parallel trace-driven estimation: the decoded interpreter must match the
// reference tree-walking executor event for event, and perf::estimate must
// return bit-identical cycles for every thread count (the determinism
// guarantee of perf/traced_driver.h), on applications covering the
// paper's Table I pattern classes. The driver's borrowed-pool contract is
// covered too: a saturated pool, a pool shared by concurrent estimates,
// cancellation while helpers wait for a shard turn, helpers yielding to
// submitted work, the parked-digest window, and helper faults.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "grovercl/compiler.h"
#include "grovercl/harness.h"
#include "perf/cpu_model.h"
#include "perf/estimator.h"
#include "perf/gpu_model.h"
#include "perf/platform.h"
#include "perf/traced_driver.h"
#include "rt/interpreter.h"
#include "rt/ref_interpreter.h"
#include "support/diagnostics.h"
#include "support/thread_pool.h"

namespace grover {
namespace {

/// Records every trace event for exact stream comparison.
struct RecordingSink final : rt::TraceSink {
  using AccessTuple = std::tuple<int, std::uint64_t, std::uint32_t, bool,
                                 std::uint32_t, std::uint32_t, std::uint32_t>;
  struct Event {
    enum Kind { Access, Barrier, GroupFinish } kind = Access;
    AccessTuple access;
    std::uint32_t group = 0;
    std::uint64_t counterTotal = 0;

    bool operator==(const Event& o) const {
      return kind == o.kind && access == o.access && group == o.group &&
             counterTotal == o.counterTotal;
    }
  };
  std::vector<Event> events;

  void onAccess(const rt::MemAccess& a) override {
    Event e;
    e.kind = Event::Access;
    e.access = {static_cast<int>(a.space), a.address, a.size, a.isWrite,
                a.group, a.workItem, a.instSlot};
    events.push_back(e);
  }
  void onBarrier(std::uint32_t group) override {
    Event e;
    e.kind = Event::Barrier;
    e.group = group;
    events.push_back(e);
  }
  void onGroupFinish(std::uint32_t group,
                     const rt::InstCounters& counters) override {
    Event e;
    e.kind = Event::GroupFinish;
    e.group = group;
    e.counterTotal = counters.total();
    events.push_back(e);
  }
};

/// Apps covering the Table I pattern classes exercised by the estimator:
/// staging transpose, tiled matrix multiply, stencil.
const char* const kApps[] = {"NVD-MT", "NVD-MM-A", "PAB-ST"};

ir::Function* compiledKernel(Program& program, const apps::Application& app) {
  ir::Function* fn = program.kernel(app.kernelName());
  EXPECT_NE(fn, nullptr);
  return fn;
}

TEST(ParallelEstimation, DecodedMatchesReferenceExecutor) {
  for (const char* id : kApps) {
    const apps::Application& app = apps::applicationById(id);

    // Reference: tree-walking executor pushing straight into the sink.
    Program refProgram = compile(app.source());
    apps::Instance refInstance = app.makeInstance(apps::Scale::Test);
    rt::Launch refLaunch(*compiledKernel(refProgram, app), refInstance.range,
                         refInstance.args);
    RecordingSink refSink;
    rt::ReferenceExecutor refExec(refLaunch.image(), &refSink);
    for (const auto& g : refLaunch.sampledGroups()) refExec.runGroup(g);
    std::string message;
    EXPECT_TRUE(refInstance.validate(message)) << id << ": " << message;

    // Decoded: parallel traced launch replaying buffered GroupTraces.
    Program decProgram = compile(app.source());
    apps::Instance decInstance = app.makeInstance(apps::Scale::Test);
    rt::Launch decLaunch(*compiledKernel(decProgram, app), decInstance.range,
                         decInstance.args);
    RecordingSink decSink;
    decLaunch.setTraceSink(&decSink);
    const rt::InstCounters counters = decLaunch.run(4);
    EXPECT_TRUE(decInstance.validate(message)) << id << ": " << message;

    EXPECT_EQ(counters.total(), refExec.totalCounters().total()) << id;
    ASSERT_EQ(decSink.events.size(), refSink.events.size()) << id;
    EXPECT_TRUE(decSink.events == refSink.events)
        << id << ": trace event streams diverge";
  }
}

TEST(ParallelEstimation, CyclesBitIdenticalAcrossThreadCounts) {
  const perf::PlatformSpec platforms[] = {perf::snb(), perf::mic(),
                                          perf::fermi()};
  for (const char* id : kApps) {
    const apps::Application& app = apps::applicationById(id);
    Program program = compile(app.source());
    ir::Function* kernel = compiledKernel(program, app);
    for (const perf::PlatformSpec& platform : platforms) {
      apps::Instance a = app.makeInstance(apps::Scale::Test);
      const perf::PerfEstimate serial =
          perf::estimate(platform, *kernel, a.range, a.args, 1, 1);
      apps::Instance b = app.makeInstance(apps::Scale::Test);
      const perf::PerfEstimate parallel =
          perf::estimate(platform, *kernel, b.range, b.args, 1, 8);
      EXPECT_EQ(serial.cycles, parallel.cycles)
          << id << " on " << platform.name;
      EXPECT_EQ(serial.memoryCycles, parallel.memoryCycles)
          << id << " on " << platform.name;
      EXPECT_EQ(serial.transactions, parallel.transactions)
          << id << " on " << platform.name;
      EXPECT_EQ(serial.spmCycles, parallel.spmCycles)
          << id << " on " << platform.name;
      EXPECT_EQ(serial.counters.total(), parallel.counters.total())
          << id << " on " << platform.name;
    }
  }
}

TEST(ParallelEstimation, DigestPipelineMatchesSerialSinkPath) {
  const perf::PlatformSpec platforms[] = {perf::snb(), perf::mic(),
                                          perf::fermi()};
  for (const char* id : kApps) {
    const apps::Application& app = apps::applicationById(id);
    Program program = compile(app.source());
    ir::Function* kernel = compiledKernel(program, app);
    for (const perf::PlatformSpec& platform : platforms) {
      // Old-style serial path: reference executor pushing into the model.
      double sinkCycles = 0;
      {
        apps::Instance instance = app.makeInstance(apps::Scale::Test);
        rt::Launch launch(*kernel, instance.range, instance.args);
        if (platform.kind == perf::PlatformKind::CpuCacheOnly) {
          perf::CpuModel model(platform);
          rt::ReferenceExecutor exec(launch.image(), &model);
          for (const auto& g : launch.sampledGroups()) exec.runGroup(g);
          sinkCycles = model.totalCycles();
        } else {
          perf::GpuModel model(platform);
          rt::ReferenceExecutor exec(launch.image(), &model);
          for (const auto& g : launch.sampledGroups()) exec.runGroup(g);
          sinkCycles = model.totalCycles();
        }
      }
      apps::Instance instance = app.makeInstance(apps::Scale::Test);
      const perf::PerfEstimate est =
          perf::estimate(platform, *kernel, instance.range, instance.args,
                         1, 8);
      EXPECT_EQ(est.cycles, sinkCycles) << id << " on " << platform.name;
    }
  }
}

/// Every estimate field that must not depend on who ran the groups.
void expectSameEstimate(const perf::PerfEstimate& a,
                        const perf::PerfEstimate& b, const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.memoryCycles, b.memoryCycles) << what;
  EXPECT_EQ(a.l1HitRate, b.l1HitRate) << what;
  EXPECT_EQ(a.transactions, b.transactions) << what;
  EXPECT_EQ(a.spmCycles, b.spmCycles) << what;
  EXPECT_EQ(a.counters.total(), b.counters.total()) << what;
}

/// One-thread estimate of `app` at Test scale on `platform`.
perf::PerfEstimate serialEstimate(const apps::Application& app,
                                  ir::Function& kernel,
                                  const perf::PlatformSpec& platform) {
  apps::Instance instance = app.makeInstance(apps::Scale::Test);
  return perf::estimate(platform, kernel, instance.range, instance.args,
                        instance.benchSampleStride, 1);
}

perf::PerfEstimate pooledEstimate(const apps::Application& app,
                                  ir::Function& kernel,
                                  const perf::PlatformSpec& platform,
                                  ThreadPool& pool) {
  apps::Instance instance = app.makeInstance(apps::Scale::Test);
  return perf::estimate(platform, kernel, instance.range, instance.args,
                        instance.benchSampleStride, pool);
}

TEST(ParallelEstimation, SaturatedPoolLeavesTheCallerAlone) {
  // Every worker is blocked until the estimates return, so no helper can
  // start: the caller must run each launch alone, and the helpers queued
  // behind the blockers must find their launch gone and do nothing.
  ThreadPool pool(4);
  std::latch release(1);
  std::atomic<int> blocked{0};
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.submit([&] {
      ++blocked;
      release.wait();
    });
  }
  while (blocked.load() < 4) std::this_thread::yield();

  const perf::PlatformSpec platforms[] = {perf::snb(), perf::mic(),
                                          perf::fermi()};
  for (const char* id : kApps) {
    const apps::Application& app = apps::applicationById(id);
    Program program = compile(app.source());
    ir::Function* kernel = compiledKernel(program, app);
    for (const perf::PlatformSpec& platform : platforms) {
      expectSameEstimate(pooledEstimate(app, *kernel, platform, pool),
                         serialEstimate(app, *kernel, platform),
                         std::string(id) + " on " + platform.name);
    }
  }
  release.count_down();
  pool.waitIdle();

  // The stale helper tasks are gone and the pool serves the next launch.
  const apps::Application& app = apps::applicationById("PAB-ST");
  Program program = compile(app.source());
  ir::Function* kernel = compiledKernel(program, app);
  expectSameEstimate(pooledEstimate(app, *kernel, perf::snb(), pool),
                     serialEstimate(app, *kernel, perf::snb()),
                     "PAB-ST on SNB after the pool drained");
}

TEST(ParallelEstimation, ConcurrentEstimatesShareOnePool) {
  // Two callers on different models borrow the same 4-worker pool at
  // once; each must still equal its serial estimate.
  ThreadPool pool(4);
  const apps::Application& cpuApp = apps::applicationById("PAB-ST");
  const apps::Application& gpuApp = apps::applicationById("NVD-MM-A");
  Program cpuProgram = compile(cpuApp.source());
  Program gpuProgram = compile(gpuApp.source());
  ir::Function* cpuKernel = compiledKernel(cpuProgram, cpuApp);
  ir::Function* gpuKernel = compiledKernel(gpuProgram, gpuApp);
  const perf::PerfEstimate cpuSerial =
      serialEstimate(cpuApp, *cpuKernel, perf::snb());
  const perf::PerfEstimate gpuSerial =
      serialEstimate(gpuApp, *gpuKernel, perf::fermi());

  for (int round = 0; round < 3; ++round) {
    perf::PerfEstimate cpuPooled;
    perf::PerfEstimate gpuPooled;
    std::thread other([&] {
      cpuPooled = pooledEstimate(cpuApp, *cpuKernel, perf::snb(), pool);
    });
    gpuPooled = pooledEstimate(gpuApp, *gpuKernel, perf::fermi(), pool);
    other.join();
    expectSameEstimate(cpuPooled, cpuSerial, "PAB-ST on SNB");
    expectSameEstimate(gpuPooled, gpuSerial, "NVD-MM-A on Fermi");
  }
}

/// A CpuModel whose first helper digest after the caller's first digest
/// holds its shard until the caller's checkpoint has thrown (or 5 s
/// pass), so that the later groups of the shard queue behind it in their
/// turn waits. Stalling only a group above the caller's first one keeps
/// the caller itself out of those waits: it is at its next checkpoint.
/// The test keeps every pool worker busy until the caller has digested,
/// so the caller always gets the first group.
struct StallingCpuModel {
  using GroupDigest = perf::CpuModel::GroupDigest;

  explicit StallingCpuModel(const perf::PlatformSpec& spec) : inner(spec) {}

  [[nodiscard]] unsigned digestShards() const { return inner.digestShards(); }
  [[nodiscard]] unsigned shardOf(std::uint32_t dense) const {
    return inner.shardOf(dense);
  }
  [[nodiscard]] GroupDigest digestGroup(unsigned shard,
                                        const rt::GroupTrace& trace) {
    if (std::this_thread::get_id() == caller) {
      GroupDigest digest = inner.digestGroup(shard, trace);
      callerDigested = true;
      return digest;
    }
    if (!callerDigested.load() || stalled.exchange(true)) {
      return inner.digestGroup(shard, trace);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!thrown.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    GroupDigest digest = inner.digestGroup(shard, trace);
    stallDone = true;
    return digest;
  }
  void mergeGroup(const GroupDigest& digest) { inner.mergeGroup(digest); }

  perf::CpuModel inner;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> callerDigested{false};
  std::atomic<bool> stalled{false};    // a helper took the stall
  std::atomic<bool> stallDone{false};  // ... and has left its digest
  std::atomic<bool> thrown{false};     // the checkpoint threw
};

TEST(ParallelEstimation, CancelWhileHelpersWaitForAShardTurn) {
  struct Cancelled {};
  const apps::Application& app = apps::applicationById("PAB-ST");
  Program program = compile(app.source());
  ir::Function* kernel = compiledKernel(program, app);
  perf::PlatformSpec oneShard = perf::snb();
  oneShard.hwThreads = 1;  // every group digests in the same shard
  ThreadPool pool(4);

  for (int round = 0; round < 3; ++round) {
    apps::Instance instance = app.makeInstance(apps::Scale::Test);
    rt::Launch launch(*kernel, instance.range, instance.args);
    const auto groups = launch.sampledGroups();
    ASSERT_GT(groups.size(), pool.size() + 1);
    StallingCpuModel model(oneShard);
    // Hold every worker until the caller has digested its first group:
    // otherwise a descheduled caller may find every group claimed by
    // helpers, and nothing stalls.
    std::latch holding(static_cast<std::ptrdiff_t>(pool.size()));
    for (std::size_t w = 0; w < pool.size(); ++w) {
      pool.submit([&] {
        holding.count_down();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!model.callerDigested.load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    holding.wait();  // no submitted task waits, so helpers queue behind
    int calls = 0;
    // Second call: once a helper holds the shard, give the other helpers
    // time to queue behind it, then cancel.
    const auto checkpoint = [&] {
      if (++calls < 2) return;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!model.stalled.load() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      // The throw must land while the stalled helper still holds the
      // shard, or the test never saw helpers queued behind a turn.
      EXPECT_FALSE(model.stallDone.load())
          << "the stall ended before the throw";
      model.thrown = true;
      throw Cancelled{};
    };
    EXPECT_THROW(
        (void)perf::runTracedLaunch(model, launch.image(), groups, &pool,
                                    checkpoint),
        Cancelled);
    EXPECT_TRUE(model.stalled.load()) << "no helper ever digested";
    // The stalled helper wakes only after the throw; the launch may
    // return only once it has left.
    EXPECT_TRUE(model.stallDone.load()) << "returned before a helper left";
    pool.waitIdle();  // the holding tasks read `model`
  }

  // The pool is reusable and the next launch is bit-identical.
  perf::PerfEstimate pooled = pooledEstimate(app, *kernel, oneShard, pool);
  expectSameEstimate(pooled, serialEstimate(app, *kernel, oneShard),
                     "PAB-ST on one-shard SNB after cancellation");
  pool.waitIdle();
}

/// A GpuModel whose digests take at least 1 ms, so that a launch's
/// helpers are still claiming groups when other work reaches the pool.
struct SlowGpuModel {
  using GroupDigest = perf::GpuModel::GroupDigest;

  explicit SlowGpuModel(const perf::PlatformSpec& spec) : inner(spec) {}

  [[nodiscard]] unsigned digestShards() const { return inner.digestShards(); }
  [[nodiscard]] unsigned shardOf(std::uint32_t dense) const {
    return inner.shardOf(dense);
  }
  [[nodiscard]] GroupDigest digestGroup(unsigned shard,
                                        const rt::GroupTrace& trace) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++digests;
    return inner.digestGroup(shard, trace);
  }
  void mergeGroup(const GroupDigest& digest) { inner.mergeGroup(digest); }

  perf::GpuModel inner;
  std::atomic<std::size_t> digests{0};
};

TEST(ParallelEstimation, HelpersYieldToSubmittedWork) {
  // Work submitted to the pool mid-launch must not wait for the launch
  // to run out of groups: helpers yield their workers between groups.
  // The caller's second checkpoint submits a probe and waits for it; the
  // probe has to start while most groups are still undigested, and the
  // launch still equals its serial result.
  Program program = compile(R"(
__kernel void k(__global float* out) {
  out[get_global_id(0)] = 1.0f;
})");
  ir::Function* fn = program.kernel("k");
  ASSERT_NE(fn, nullptr);
  rt::Buffer out = rt::Buffer::zeros<float>(1024);
  rt::Launch launch(*fn, rt::NDRange::make1D(1024, 16),
                    {rt::KernelArg::buffer(&out)});
  const auto groups = launch.sampledGroups();
  ASSERT_EQ(groups.size(), 64U);
  ThreadPool pool(4);

  for (int round = 0; round < 3; ++round) {
    SlowGpuModel model(perf::fermi());
    std::atomic<bool> probed{false};
    std::atomic<std::size_t> digestsAtProbe{groups.size()};
    int calls = 0;
    const auto checkpoint = [&] {
      if (++calls != 2) return;
      pool.submit([&] {
        digestsAtProbe = model.digests.load();
        probed = true;
      });
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!probed.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    (void)perf::runTracedLaunch(model, launch.image(), groups, &pool,
                                checkpoint);
    pool.waitIdle();  // the probe ran, and no helper is left behind
    EXPECT_TRUE(probed.load());
    EXPECT_LT(digestsAtProbe.load(), groups.size() / 2)
        << "the probe waited for the launch's helpers to run out of groups";

    perf::GpuModel serial(perf::fermi());
    (void)perf::runTracedLaunch(serial, launch.image(), groups, nullptr);
    EXPECT_EQ(model.inner.totalCycles(), serial.totalCycles());
  }
}

/// A GpuModel whose first digest stalls for 50 ms, holding the merge
/// cursor back, and which tracks the most digests ever left unmerged.
struct CursorStallingGpuModel {
  using GroupDigest = perf::GpuModel::GroupDigest;

  explicit CursorStallingGpuModel(const perf::PlatformSpec& spec)
      : inner(spec) {}

  [[nodiscard]] unsigned digestShards() const { return inner.digestShards(); }
  [[nodiscard]] unsigned shardOf(std::uint32_t dense) const {
    return inner.shardOf(dense);
  }
  [[nodiscard]] GroupDigest digestGroup(unsigned shard,
                                        const rt::GroupTrace& trace) {
    if (!stalled.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    GroupDigest digest = inner.digestGroup(shard, trace);
    const std::size_t parked = ++digested - merged.load();
    std::size_t peak = peakParked.load();
    while (parked > peak && !peakParked.compare_exchange_weak(peak, parked)) {
    }
    return digest;
  }
  void mergeGroup(const GroupDigest& digest) {
    ++merged;
    inner.mergeGroup(digest);
  }

  perf::GpuModel inner;
  std::atomic<bool> stalled{false};
  std::atomic<std::size_t> digested{0};
  std::atomic<std::size_t> merged{0};
  std::atomic<std::size_t> peakParked{0};
};

TEST(ParallelEstimation, ParkedDigestsStayWithinTheWindow) {
  // While one digest holds the merge cursor back, the other participants
  // may run at most 2x the participant count of groups past it, rather
  // than parking the digest of every other group of the launch.
  Program program = compile(R"(
__kernel void k(__global float* out) {
  out[get_global_id(0)] = 1.0f;
})");
  ir::Function* fn = program.kernel("k");
  ASSERT_NE(fn, nullptr);
  rt::Buffer out = rt::Buffer::zeros<float>(1024);
  rt::Launch launch(*fn, rt::NDRange::make1D(1024, 16),
                    {rt::KernelArg::buffer(&out)});
  const auto groups = launch.sampledGroups();
  ThreadPool pool(4);
  const std::size_t window = 2 * (pool.size() + 1);
  ASSERT_GT(groups.size(), 2 * window);

  CursorStallingGpuModel model(perf::fermi());
  (void)perf::runTracedLaunch(model, launch.image(), groups, &pool);
  // Plus one: the merge cursor passes a digest just before merging it.
  EXPECT_LE(model.peakParked.load(), window + 1);
  EXPECT_EQ(model.merged.load(), groups.size());

  perf::GpuModel serial(perf::fermi());
  (void)perf::runTracedLaunch(serial, launch.image(), groups, nullptr);
  EXPECT_EQ(model.inner.totalCycles(), serial.totalCycles());
  pool.waitIdle();
}

TEST(ParallelEstimation, HelperFaultReachesTheCaller) {
  // Group `bad` writes out of bounds. The caller's first checkpoint waits
  // for a probe offered behind the four helpers (a submitted probe would
  // make them yield): it runs only once some helper has left, i.e. once
  // every group is claimed or a helper faulted, so the caller itself
  // never runs a group and the fault it rethrows is a helper's. On the one-shard model the groups after
  // `bad` wait for its shard turn, which never comes: the fault has to
  // wake them.
  Program program = compile(R"(
__kernel void k(__global float* out, int bad) {
  int i = get_global_id(0);
  if (get_group_id(0) == bad) i = i + 4096;
  out[i] = 1.0f;
})");
  ir::Function* fn = program.kernel("k");
  ASSERT_NE(fn, nullptr);
  ThreadPool pool(4);
  perf::PlatformSpec oneShard = perf::snb();
  oneShard.hwThreads = 1;
  const std::pair<perf::PlatformSpec, int> cases[] = {
      {perf::fermi(), 15}, {perf::snb(), 15}, {oneShard, 8}};
  for (const auto& [platform, bad] : cases) {
    const std::string what =
        platform.name + " hwThreads=" + std::to_string(platform.hwThreads);
    rt::Buffer out = rt::Buffer::zeros<float>(256);
    std::atomic<bool> probed{false};
    bool waited = false;
    const auto checkpoint = [&] {
      if (waited) return;
      waited = true;
      pool.offer([&probed] { probed = true; });
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!probed.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    try {
      (void)perf::estimate(
          platform, *fn, rt::NDRange::make1D(256, 16),
          {rt::KernelArg::buffer(&out), rt::KernelArg::int32(bad)}, 1, pool,
          checkpoint);
      ADD_FAILURE() << "no fault reached the caller on " << what;
    } catch (const GroverError& e) {
      EXPECT_NE(std::string(e.what()).find("out-of-bounds"),
                std::string::npos)
          << what << ": " << e.what();
    }
    EXPECT_TRUE(probed.load()) << what;
    pool.waitIdle();
  }
}

}  // namespace
}  // namespace grover
