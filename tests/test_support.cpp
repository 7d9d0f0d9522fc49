// String helpers, diagnostics, thread pool, single-flight LRU.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/diagnostics.h"
#include "support/hash.h"
#include "support/malloc_tuning.h"
#include "support/single_flight_lru.h"
#include "support/str.h"
#include "support/thread_pool.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace grover {
namespace {

TEST(Str, Cat) { EXPECT_EQ(cat("a", 1, "b", 2.5), "a1b2.5"); }

TEST(Str, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Str, Fixed) {
  EXPECT_EQ(fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fixed(2.0, 3), "2.000");
}

TEST(Str, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcdef", 4), "abcdef");
}

TEST(Hash, StableAcrossRuns) {
  // Pinned digests: the on-disk artifact cache depends on these values
  // never changing across builds or hosts.
  EXPECT_EQ(fnv1a(""), 0xa8c7f832281a39c5ull);
  EXPECT_EQ(fnv1a("grover"), fnv1a("grover"));
  EXPECT_NE(fnv1a("grover"), fnv1a("grover "));
}

TEST(Hash, LengthPrefixingPreventsConcatenationCollisions) {
  Fnv1a a;
  a.update(std::string_view("ab"));
  a.update(std::string_view("c"));
  Fnv1a b;
  b.update(std::string_view("a"));
  b.update(std::string_view("bc"));
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, Hex64) {
  EXPECT_EQ(toHex64(0), "0000000000000000");
  EXPECT_EQ(toHex64(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(toHex64(~0ull), "ffffffffffffffff");
}

TEST(Diagnostics, CollectsAndCounts) {
  DiagnosticEngine diags;
  EXPECT_FALSE(diags.hasErrors());
  diags.warning({1, 2}, "w");
  EXPECT_FALSE(diags.hasErrors());
  diags.error({3, 4}, "e");
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_EQ(diags.errorCount(), 1u);
  EXPECT_EQ(diags.all().size(), 2u);
  EXPECT_NE(diags.str().find("3:4: error: e"), std::string::npos);
  diags.clear();
  EXPECT_FALSE(diags.hasErrors());
  EXPECT_TRUE(diags.all().empty());
}

TEST(Diagnostics, NoLocRendersWithoutPosition) {
  DiagnosticEngine diags;
  diags.error("standalone");
  EXPECT_EQ(diags.all()[0].str(), "error: standalone");
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.waitIdle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.waitIdle();
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, PropagatesTaskExceptionFromWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw GroverError("worker failed"); });
  EXPECT_THROW(
      {
        try {
          pool.waitIdle();
        } catch (const GroverError& e) {
          EXPECT_STREQ(e.what(), "worker failed");
          throw;
        }
      },
      GroverError);
}

TEST(ThreadPool, RemainingTasksStillRunAfterException) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([] { throw GroverError("boom"); });
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_THROW(pool.waitIdle(), GroverError);
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, UsableAfterExceptionWasRethrown) {
  ThreadPool pool(2);
  pool.submit([] { throw GroverError("first"); });
  EXPECT_THROW(pool.waitIdle(), GroverError);
  // The exception was observed; the pool must be clean again.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, OnlyFirstExceptionIsKept) {
  ThreadPool pool(1);  // one worker → deterministic task order
  pool.submit([] { throw GroverError("first"); });
  pool.submit([] { throw GroverError("second"); });
  try {
    pool.waitIdle();
    FAIL() << "expected an exception";
  } catch (const GroverError& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  pool.waitIdle();  // second exception was dropped, not deferred
}

TEST(ThreadPool, OfferedTasksRunOnlyWhenNoSubmittedTaskWaits) {
  ThreadPool pool(1);  // one worker -> deterministic task order
  std::latch release(1);
  std::atomic<bool> started{false};
  pool.submit([&] {
    started = true;
    release.wait();
  });
  while (!started.load()) std::this_thread::yield();
  std::vector<int> order;  // written by the one worker only
  pool.offer([&order] { order.push_back(1); });
  pool.offer([&order] { order.push_back(2); });
  EXPECT_FALSE(pool.hasWaiting());
  pool.submit([&order] { order.push_back(3); });
  EXPECT_TRUE(pool.hasWaiting());
  release.count_down();
  pool.waitIdle();  // waits for offered tasks too
  EXPECT_FALSE(pool.hasWaiting());
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

using IntFlight = SingleFlightLru<std::shared_ptr<const int>>;

/// Claims `key` on a new thread that counts its waits; the claim's result
/// lands in `out` (a leading claim publishes `mine` first).
std::thread claimOnThread(IntFlight& store, std::atomic<int>& waits,
                          int mine, std::shared_ptr<const int>& out,
                          std::atomic<bool>& led) {
  return std::thread([&store, &waits, &out, &led, mine] {
    IntFlight::Claim claim = store.claim(7, [&waits] { ++waits; });
    if (claim.leading()) {
      led = true;
      claim.publish(std::make_shared<const int>(mine), 1);
    }
    out = claim.value();
  });
}

void waitUntil(const std::atomic<int>& waits, int atLeast) {
  while (waits.load() < atLeast) std::this_thread::yield();
}

TEST(SingleFlightLru, WaitersGetTheLeadersValue) {
  IntFlight store(16, 1);
  IntFlight::Claim lead = store.claim(7, [] {});
  ASSERT_TRUE(lead.leading());
  std::atomic<int> waits{0};
  std::atomic<bool> led{false};
  std::shared_ptr<const int> got;
  std::thread waiter = claimOnThread(store, waits, 2, got, led);
  waitUntil(waits, 1);  // the waiter is parked on the lead
  lead.publish(std::make_shared<const int>(1), 1);
  waiter.join();
  EXPECT_FALSE(led.load());
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 1);
  const IntFlight::Claim hit = store.claim(7, [] {});
  EXPECT_FALSE(hit.leading());
  EXPECT_EQ(hit.value(), got);
  EXPECT_EQ(store.stats().entries, 1u);
}

TEST(SingleFlightLru, AbandonedLeadPassesToOneWaiter) {
  // A leader that leaves without a value (a cancelled or failed build)
  // must not hand its waiters its failure: one of them builds instead,
  // and the other gets that value.
  IntFlight store(16, 1);
  std::atomic<int> waits1{0}, waits2{0};
  std::atomic<bool> led1{false}, led2{false};
  std::shared_ptr<const int> got1, got2;
  std::thread first, second;
  {
    IntFlight::Claim lead = store.claim(7, [] {});
    ASSERT_TRUE(lead.leading());
    first = claimOnThread(store, waits1, 1, got1, led1);
    second = claimOnThread(store, waits2, 2, got2, led2);
    waitUntil(waits1, 1);
    waitUntil(waits2, 1);
  }  // the lead ends unpublished
  first.join();
  second.join();
  EXPECT_NE(led1.load(), led2.load()) << "exactly one waiter leads";
  ASSERT_NE(got1, nullptr);
  EXPECT_EQ(got1, got2);
  EXPECT_EQ(*got1, led1.load() ? 1 : 2);
  EXPECT_EQ(store.stats().entries, 1u);
}

TEST(SingleFlightLru, AWaiterLeavesOnItsOwnException) {
  IntFlight store(16, 1);
  IntFlight::Claim lead = store.claim(7, [] {});
  std::atomic<bool> threw{false};
  std::thread waiter([&] {
    try {
      (void)store.claim(7, [] { throw std::runtime_error("gone"); });
    } catch (const std::runtime_error&) {
      threw = true;
    }
  });
  waiter.join();
  EXPECT_TRUE(threw.load());
  // The lead is untouched: it still publishes, and the value is stored.
  ASSERT_TRUE(lead.leading());
  lead.publish(std::make_shared<const int>(3), 1);
  EXPECT_EQ(*store.claim(7, [] {}).value(), 3);
}

TEST(MallocTuning, PinnedThresholdMapsBlocksAfterALargerFree) {
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
  support::pinMallocThresholds();
  // Unpinned, freeing a mapped 8 MiB block raises the mmap threshold to
  // 8 MiB, and the 2 MiB block below would come from the heap.
  static void* volatile sink = nullptr;  // keeps the pairs from elision
  sink = std::malloc(8U << 20);
  std::free(sink);
  const std::size_t before = mallinfo2().hblks;
  sink = std::malloc(2U << 20);
  const std::size_t during = mallinfo2().hblks;
  std::free(sink);
  EXPECT_EQ(during, before + 1) << "the 2 MiB block was not mapped";
#else
  GTEST_SKIP() << "glibc malloc only";
#endif
}

}  // namespace
}  // namespace grover
