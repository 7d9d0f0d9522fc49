// Single-flight deduplication under contention: many threads hammering a
// small key set must trigger exactly one compilation per unique key, and
// every waiter must observe identical module text. Also the cold compile's
// fork of its two per-variant tails onto the service pool: identical for
// every pool width, deadlock-free on a saturated pool, and cancellable.
// And the platform-free kernel entry: compiles of one kernel for several
// platforms at once analyse and prove it once, and a cancelled leader
// leaves its followers to finish.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perf/platform.h"
#include "service/compile_service.h"
#include "support/diagnostics.h"

namespace grover::service {
namespace {

Request appRequest(const std::string& id) {
  Request r;
  r.appId = id;
  return r;
}

TEST(ServiceConcurrency, OneCompilePerUniqueKeyUnderContention) {
  const std::vector<std::string> keySet = {"NVD-MT", "AMD-MT", "AMD-SS"};
  constexpr unsigned kThreads = 10;
  constexpr unsigned kItersPerThread = 24;

  CompileService service(ServiceConfig{});
  std::vector<std::vector<ArtifactPtr>> seen(kThreads);
  std::atomic<bool> go{false};
  std::atomic<unsigned> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (unsigned i = 0; i < kItersPerThread; ++i) {
        const std::string& id = keySet[(t + i) % keySet.size()];
        try {
          seen[t].push_back(service.run(appRequest(id)));
        } catch (const GroverError&) {
          ++failures;
        }
      }
    });
  }
  go = true;
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0u);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compiles, keySet.size())
      << "every unique key must compile exactly once";
  EXPECT_EQ(s.requests, kThreads * kItersPerThread);
  // Every request was served by exactly one of: leading a compile,
  // coalescing onto an in-flight one, or a cache hit.
  EXPECT_EQ(s.misses + s.coalesced + s.memoryHits, s.requests);
  EXPECT_EQ(s.misses, keySet.size());

  // All observers of one key see identical module text.
  std::map<std::string, std::string> canonical;
  for (unsigned t = 0; t < kThreads; ++t) {
    unsigned i = 0;
    for (const ArtifactPtr& a : seen[t]) {
      const std::string& id = keySet[(t + i++) % keySet.size()];
      ASSERT_NE(a, nullptr);
      EXPECT_TRUE(a->ok);
      auto [it, inserted] = canonical.emplace(id, a->transformedText);
      if (!inserted) {
        EXPECT_EQ(a->transformedText, it->second)
            << "waiters observed divergent module text for " << id;
      }
    }
  }
  EXPECT_EQ(canonical.size(), keySet.size());
}

TEST(ServiceConcurrency, ConcurrentIdenticalSubmitsShareOneCompilation) {
  constexpr unsigned kWaiters = 16;
  CompileService service(ServiceConfig{});
  std::vector<CompileService::Future> futures;
  futures.reserve(kWaiters);
  for (unsigned i = 0; i < kWaiters; ++i) {
    futures.push_back(service.submit(appRequest("PAB-ST")));
  }
  std::vector<ArtifactPtr> results;
  for (auto& f : futures) results.push_back(f.get());
  for (const ArtifactPtr& a : results) {
    ASSERT_NE(a, nullptr);
    EXPECT_TRUE(a->ok);
    EXPECT_EQ(a->transformedText, results.front()->transformedText);
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compiles, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.coalesced + s.memoryHits, kWaiters - 1);
}

TEST(ServiceConcurrency, BoundedQueueAppliesBackPressure) {
  ServiceConfig config;
  config.workers = 2;
  config.maxQueue = 2;
  CompileService service(config);
  // More unique keys than queue slots: submit() must block rather than
  // reject, and everything must still complete.
  const std::vector<std::string> ids = {"NVD-MT",   "AMD-MT", "AMD-SS",
                                        "AMD-RG",   "PAB-ST", "ROD-SC",
                                        "NVD-NBody"};
  std::vector<CompileService::Future> futures;
  for (const std::string& id : ids) {
    futures.push_back(service.submit(appRequest(id)));
  }
  for (auto& f : futures) {
    const ArtifactPtr a = f.get();
    ASSERT_NE(a, nullptr);
    EXPECT_TRUE(a->ok);
  }
  EXPECT_EQ(service.stats().compiles, ids.size());
}

TEST(ServiceShutdown, DrainsAndRejectsNewWork) {
  CompileService service(ServiceConfig{});
  auto f = service.submit(appRequest("NVD-MT"));
  service.shutdown();
  // The in-flight request completed during shutdown's drain.
  EXPECT_TRUE(f.get()->ok);
  EXPECT_THROW((void)service.submit(appRequest("NVD-MT")), GroverError);
  service.shutdown();  // idempotent
}

/// A cold estimation request with the prover on: both tails prove and
/// estimate.
Request provedRequest(const std::string& id, const std::string& platform,
                      apps::Scale scale = apps::Scale::Test) {
  Request r = appRequest(id);
  r.platform = platform;
  r.scale = scale;
  r.options.prove = true;
  return r;
}

TEST(ServiceFork, ColdForkIsIdenticalForEveryPoolWidth) {
  const std::vector<std::string> ids = {"NVD-MT", "AMD-SS", "NVD-MM-A"};
  const std::vector<std::string> platforms = {"SNB", "Fermi"};
  std::vector<AutoResult> narrow;
  std::vector<AutoResult> wide;
  for (unsigned workers : {1u, 4u}) {
    ServiceConfig config;
    config.workers = workers;
    CompileService service(config);
    for (const std::string& id : ids) {
      for (const std::string& platform : platforms) {
        (workers == 1 ? narrow : wide)
            .push_back(service.compileAuto(provedRequest(id, platform)));
      }
    }
  }
  ASSERT_EQ(narrow.size(), wide.size());
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    const Artifact& a = *narrow[i].artifact;
    const Artifact& b = *wide[i].artifact;
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(a.ok) << a.diagnostics;
    ASSERT_TRUE(b.ok) << b.diagnostics;
    EXPECT_TRUE(a.hasEstimate);
    EXPECT_GT(a.cyclesWithLM, 0);
    EXPECT_NE(a.proofOriginal, sym::ProofStatus::Unchecked);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.cyclesWithLM, b.cyclesWithLM);
    EXPECT_EQ(a.cyclesWithoutLM, b.cyclesWithoutLM);
    EXPECT_EQ(a.normalized, b.normalized);
    EXPECT_EQ(a.proofOriginal, b.proofOriginal);
    EXPECT_EQ(a.proofTransformed, b.proofTransformed);
    EXPECT_EQ(a.proofNote, b.proofNote);
    EXPECT_EQ(a.proofVetoed, b.proofVetoed);
    EXPECT_EQ(a.originalText, b.originalText);
    EXPECT_EQ(a.transformedText, b.transformedText);
  }
}

TEST(ServiceFork, SaturatedPoolNeverDeadlocksOnFork) {
  // One worker: every side tail queues behind the compiles and is always
  // reclaimed by the compile that forked it.
  ServiceConfig config;
  config.workers = 1;
  CompileService service(config);
  const std::vector<std::string> ids = {"NVD-MT", "AMD-SS", "AMD-MT",
                                        "PAB-ST"};
  const std::vector<std::string> platforms = {"SNB", "Fermi"};
  constexpr unsigned kThreads = 4;
  std::atomic<unsigned> completed{0};
  std::atomic<unsigned> timedOut{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<CompileService::Future> futures;
      for (const std::string& platform : platforms) {
        futures.push_back(service.submit(provedRequest(ids[t], platform)));
      }
      for (CompileService::Future& f : futures) {
        if (f.wait_for(std::chrono::minutes(2)) !=
            std::future_status::ready) {
          ++timedOut;
        } else if (f.get()->ok) {
          ++completed;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(timedOut.load(), 0u);
  EXPECT_EQ(completed.load(), ids.size() * platforms.size());
  EXPECT_EQ(service.stats().compiles, ids.size() * platforms.size());
}

TEST(ServiceFork, CancelWhileBothTailsRunCachesNothing) {
  // Two workers: the compile holds one, so the other picks up the side
  // tail and both variants prove and estimate at once.
  ServiceConfig config;
  config.workers = 2;
  CompileService service(config);
  const Request request = provedRequest("NVD-MT", "SNB", apps::Scale::Bench);
  CancelToken token = makeCancelToken();
  CompileService::Future f = service.submit(request, token);
  // Both proofs done: each tail is now in its long Bench-scale estimate.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (service.stats().proofsRun < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(service.stats().proofsRun, 2u);
  token->store(true);

  const ArtifactPtr a = f.get();
  ASSERT_NE(a, nullptr);
  EXPECT_FALSE(a->ok);
  EXPECT_NE(a->diagnostics.find("cancelled"), std::string::npos)
      << a->diagnostics;
  // The future resolves only after the compile returned, and the compile
  // returns only after the side tail finished: nothing runs on after it,
  // so no stage time or proof lands once the result is out.
  const ServiceStats atResult = service.stats();
  service.drain();
  const ServiceStats settled = service.stats();
  EXPECT_EQ(atResult.estimateMs, settled.estimateMs);
  EXPECT_EQ(atResult.proveMs, settled.proveMs);
  EXPECT_EQ(settled.cancelled, 1u);
  EXPECT_EQ(settled.entries, 0u);
  EXPECT_EQ(settled.negativeHits, 0u);

  // Nothing was cached: the same request compiles afresh and succeeds.
  EXPECT_TRUE(service.run(request)->ok);
  EXPECT_EQ(service.stats().compiles, 2u);
  EXPECT_EQ(service.stats().memoryHits, 0u);
}

TEST(ServiceKernelEntry, ConcurrentPlatformsShareOneKernelAnalysis) {
  const std::vector<perf::PlatformSpec> platforms = perf::allPlatforms();
  std::vector<ArtifactPtr> serial;
  {
    ServiceConfig config;
    config.workers = 1;
    CompileService service(config);
    for (const perf::PlatformSpec& platform : platforms) {
      serial.push_back(service.run(provedRequest("NVD-MM-B", platform.name)));
    }
  }
  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ServiceConfig config;
    config.workers = workers;
    CompileService service(config);
    std::vector<CompileService::Future> futures;
    for (const perf::PlatformSpec& platform : platforms) {
      futures.push_back(
          service.submit(provedRequest("NVD-MM-B", platform.name)));
    }
    for (std::size_t p = 0; p < platforms.size(); ++p) {
      SCOPED_TRACE(platforms[p].name);
      const ArtifactPtr a = futures[p].get();
      const Artifact& b = *serial[p];
      ASSERT_TRUE(a->ok) << a->diagnostics;
      EXPECT_EQ(a->cyclesWithLM, b.cyclesWithLM);
      EXPECT_EQ(a->cyclesWithoutLM, b.cyclesWithoutLM);
      EXPECT_EQ(a->outcome, b.outcome);
      EXPECT_EQ(a->proofOriginal, b.proofOriginal);
      EXPECT_EQ(a->proofTransformed, b.proofTransformed);
      EXPECT_EQ(a->proofNote, b.proofNote);
      EXPECT_EQ(a->originalText, b.originalText);
      EXPECT_EQ(a->transformedText, b.transformedText);
    }
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.proofsRun, 2u) << "one kernel, proved once";
    EXPECT_EQ(s.compiles, platforms.size());
    EXPECT_EQ(s.kernelReuses, platforms.size() - 1);
  }
}

TEST(ServiceKernelEntry, CancelledLeaderLeavesFollowersToFinish) {
  // The leader publishes the kernel entry once both proofs are done and
  // only then starts its long Bench-scale estimates, where its only waiter
  // cancels. A compile of the kernel for another platform, sent once the
  // proofs are done, finishes from that entry whenever it gets a worker,
  // and nothing is cached under the cancelled key. A leader cancelled
  // before it publishes hands the lead to a follower instead:
  // SingleFlightLru.AbandonedLeadPassesToOneWaiter pins that handover.
  ServiceConfig config;
  config.workers = 2;
  CompileService service(config);
  const Request leader = provedRequest("NVD-MT", "SNB", apps::Scale::Bench);
  const Request follower =
      provedRequest("NVD-MT", "Fermi", apps::Scale::Bench);
  CancelToken token = makeCancelToken();
  CompileService::Future led = service.submit(leader, token);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (service.stats().proofsRun < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(service.stats().proofsRun, 2u);
  CompileService::Future followed = service.submit(follower);
  token->store(true);

  const ArtifactPtr cancelled = led.get();
  EXPECT_FALSE(cancelled->ok);
  EXPECT_NE(cancelled->diagnostics.find("cancelled"), std::string::npos)
      << cancelled->diagnostics;
  const ArtifactPtr a = followed.get();
  ASSERT_TRUE(a->ok) << a->diagnostics;
  EXPECT_TRUE(a->hasEstimate);
  EXPECT_NE(a->proofOriginal, sym::ProofStatus::Unchecked);
  service.drain();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.cancelled, 1u);
  // The follower reused the leader's entry: no proof of its own, and only
  // its artifact is cached.
  EXPECT_EQ(s.proofsRun, 2u);
  EXPECT_EQ(s.kernelReuses, 1u);
  EXPECT_EQ(s.entries, 1u);

  // The cancelled key compiles afresh, from the same entry.
  EXPECT_TRUE(service.run(leader)->ok);
  s = service.stats();
  EXPECT_EQ(s.memoryHits, 0u);
  EXPECT_EQ(s.compiles, 3u);
  EXPECT_EQ(s.kernelReuses, 2u);
  EXPECT_EQ(s.proofsRun, 2u);
}

}  // namespace
}  // namespace grover::service
