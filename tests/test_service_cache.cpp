// Cache semantics of the compilation service: LRU byte budget, negative
// caching of compile failures, the on-disk tier (hit, corruption
// fallback), bit-identity of cached estimates with the uncached Harness
// path, and of compiles that reuse another platform's kernel entry with
// fresh ones.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "grovercl/harness.h"
#include "perf/platform.h"
#include "service/compile_service.h"
#include "support/diagnostics.h"

namespace grover::service {
namespace {

namespace fs = std::filesystem;

ArtifactPtr makeArtifact(std::size_t textBytes) {
  auto a = std::make_shared<Artifact>();
  a->ok = true;
  a->transformedText.assign(textBytes, 'x');
  return a;
}

std::string freshDir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("grover_svc_test_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(ArtifactCacheLru, EvictionRespectsByteBudget) {
  // Budget sized so two entries fit and a third does not.
  const std::size_t entryBytes = makeArtifact(800)->byteSize();
  ArtifactCache::Config config;
  config.shards = 1;
  config.maxBytes = 2 * entryBytes + entryBytes / 2;
  ArtifactCache cache(config);

  cache.put(1, makeArtifact(800));
  cache.put(2, makeArtifact(800));
  ASSERT_NE(cache.get(1), nullptr);
  ASSERT_NE(cache.get(2), nullptr);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Third entry overflows the budget; key 1 was touched before key 2, so
  // key 1 is the LRU victim.
  cache.put(3, makeArtifact(800));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_NE(cache.get(2), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  const ArtifactCache::Stats s1 = cache.stats();
  EXPECT_EQ(s1.evictions, 1u);
  EXPECT_LE(s1.bytesInUse, config.maxBytes);

  // Recency is respected: touch 2, insert 4 → 3 is evicted, 2 survives.
  ASSERT_NE(cache.get(2), nullptr);
  cache.put(4, makeArtifact(800));
  EXPECT_NE(cache.get(2), nullptr);
  EXPECT_EQ(cache.get(3), nullptr);
  EXPECT_NE(cache.get(4), nullptr);
  EXPECT_LE(cache.stats().bytesInUse, config.maxBytes);
}

TEST(ArtifactCacheLru, OversizedArtifactIsNotRetained) {
  ArtifactCache::Config config;
  config.shards = 1;
  config.maxBytes = 1000;
  ArtifactCache cache(config);
  cache.put(7, makeArtifact(5000));
  EXPECT_EQ(cache.get(7), nullptr);
  EXPECT_LE(cache.stats().bytesInUse, config.maxBytes);

  // The oversized newcomer must not flush the older entries of its shard;
  // overwriting a key with an oversized value drops only that key.
  cache.put(1, makeArtifact(10));
  cache.put(2, makeArtifact(10));
  cache.put(8, makeArtifact(5000));
  cache.put(2, makeArtifact(5000));
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_EQ(cache.get(8), nullptr);
  const ArtifactCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytesInUse, makeArtifact(10)->byteSize());
}

// Pins the on-disk bytes of one artifact: existing cache directories must
// keep loading, so the format may only change with its version tag.
TEST(ArtifactCacheDisk, DiskFormatIsPinned) {
  const std::string dir = freshDir("golden");
  ArtifactCache::Config config;
  config.diskDir = dir;
  ArtifactCache cache(config);

  Artifact a;
  a.ok = true;
  a.diagnostics = "w";
  a.report.anyTransformed = true;
  grv::BufferResult b;
  b.bufferName = "tile";
  b.transformed = true;
  b.glIndex = "(gx)";
  b.solution = "lx := lx";
  b.lsPattern = grv::IndexPattern::Simple;
  b.llPattern = grv::IndexPattern::PlusMul;
  b.numLocalLoads = 3;
  b.numStagingPairs = 1;
  a.report.buffers.push_back(b);
  a.hasEstimate = true;
  a.cyclesWithLM = 1000.0;
  a.cyclesWithoutLM = 800.0;
  a.normalized = 1.25;
  a.outcome = perf::Outcome::Gain;
  a.proofOriginal = sym::ProofStatus::Proved;
  a.proofTransformed = sym::ProofStatus::Unknown;
  a.proofNote = "n";
  cache.storeToDisk(42, a);

  EXPECT_EQ(cache.diskPath(42), dir + "/000000000000002a.grvart");
  std::ifstream in(cache.diskPath(42), std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(),
            "groverart 2\n"
            "key 000000000000002a\n"
            "i ok 1\n"
            "s diagnostics 1\nw\n"
            "i anyTransformed 1\n"
            "i barriersRemoved 0\n"
            "i numBuffers 1\n"
            "s name 4\ntile\n"
            "i transformed 1\n"
            "s reason 0\n\n"
            "s glIndex 4\n(gx)\n"
            "s lsIndex 0\n\n"
            "s llIndex 0\n\n"
            "s nglIndex 0\n\n"
            "s solution 8\nlx := lx\n"
            "i lsPattern 1\n"
            "i llPattern 2\n"
            "i numLocalLoads 3\n"
            "i numStagingPairs 1\n"
            "i hasEstimate 1\n"
            "b cyclesWithLM 4652007308841189376\n"
            "b cyclesWithoutLM 4650248090236747776\n"
            "b normalized 4608308318706860032\n"
            "i outcome 0\n"
            "i proofOriginal 1\n"
            "i proofTransformed 3\n"
            "s proofNote 1\nn\n"
            "i proofVetoed 0\n"
            "s original 0\n\n"
            "s transformed 0\n\n"
            "end\n");

  const ArtifactPtr reloaded = cache.loadFromDisk(42);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->report.buffers.at(0).llPattern,
            grv::IndexPattern::PlusMul);
  EXPECT_EQ(reloaded->normalized, 1.25);
  EXPECT_EQ(cache.stats().diskHits, 1u);
  fs::remove_all(dir);
}

TEST(ServiceNegativeCache, CompileFailureIsCachedWithoutRecompiling) {
  CompileService service(ServiceConfig{});
  Request bad;
  bad.source = "__kernel void broken(__global float* out) { out[0] = ; }";

  const ArtifactPtr first = service.run(bad);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->ok);
  EXPECT_FALSE(first->diagnostics.empty());
  EXPECT_EQ(service.stats().compiles, 1u);

  const ArtifactPtr second = service.run(bad);
  ASSERT_NE(second, nullptr);
  EXPECT_FALSE(second->ok);
  EXPECT_EQ(second->diagnostics, first->diagnostics);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compiles, 1u) << "negative entry must not re-compile";
  EXPECT_EQ(s.memoryHits, 1u);
  EXPECT_EQ(s.negativeHits, 1u);
}

TEST(ServiceNegativeCache, UnknownAppAndBadPlatformAreRejected) {
  CompileService service(ServiceConfig{});
  Request r;
  r.appId = "NOT-AN-APP";
  EXPECT_THROW((void)service.submit(r), GroverError);
  Request p;
  p.appId = "NVD-MT";
  p.platform = "PDP-11";
  EXPECT_THROW((void)service.submit(p), GroverError);
  Request noApp;
  noApp.source = "__kernel void k(__global float* o) { o[0] = 1.0f; }";
  noApp.platform = "SNB";
  EXPECT_THROW((void)service.submit(noApp), GroverError);
}

TEST(ServiceDiskTier, SecondServiceLoadsFromDiskWithoutCompiling) {
  const std::string dir = freshDir("disk");
  Request req;
  req.appId = "NVD-MT";
  req.platform = "SNB";
  req.scale = apps::Scale::Test;

  ServiceConfig config;
  config.cache.diskDir = dir;
  ArtifactPtr cold;
  {
    CompileService service(config);
    cold = service.run(req);
    ASSERT_TRUE(cold->ok);
    EXPECT_EQ(service.stats().compiles, 1u);
    EXPECT_EQ(service.stats().diskStores, 1u);
  }

  CompileService warm(config);
  const ArtifactPtr reloaded = warm.run(req);
  ASSERT_TRUE(reloaded->ok);
  const ServiceStats s = warm.stats();
  EXPECT_EQ(s.compiles, 0u) << "disk artifact must satisfy the request";
  EXPECT_EQ(s.diskHits, 1u);
  // Full fidelity through the printer/parser cache format.
  EXPECT_EQ(reloaded->transformedText, cold->transformedText);
  EXPECT_EQ(reloaded->originalText, cold->originalText);
  ASSERT_EQ(reloaded->report.buffers.size(), cold->report.buffers.size());
  EXPECT_EQ(reloaded->report.buffers[0].solution,
            cold->report.buffers[0].solution);
  // Estimates are persisted bit-exactly.
  EXPECT_EQ(reloaded->cyclesWithLM, cold->cyclesWithLM);
  EXPECT_EQ(reloaded->cyclesWithoutLM, cold->cyclesWithoutLM);
  EXPECT_EQ(reloaded->normalized, cold->normalized);
  fs::remove_all(dir);
}

TEST(ServiceDiskTier, CorruptedArtifactFallsBackToRecompilation) {
  const std::string dir = freshDir("corrupt");
  Request req;
  req.appId = "AMD-MT";

  ServiceConfig config;
  config.cache.diskDir = dir;
  ArtifactPtr cold;
  {
    CompileService service(config);
    cold = service.run(req);
    ASSERT_TRUE(cold->ok);
  }

  // Corrupt every stored artifact in place.
  unsigned corrupted = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::trunc | std::ios::binary);
    out << "groverart 1\nkey 0000000000000000\nthis is not an artifact\n";
    ++corrupted;
  }
  ASSERT_GE(corrupted, 1u);

  CompileService service(config);
  const ArtifactPtr recompiled = service.run(req);
  ASSERT_TRUE(recompiled->ok) << "corruption must not fail the request";
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.diskLoadFailures, 1u);
  EXPECT_EQ(s.diskHits, 0u);
  EXPECT_EQ(s.compiles, 1u);
  EXPECT_EQ(recompiled->transformedText, cold->transformedText);

  // Truncated/garbled module payload (valid-looking header, broken IR)
  // must also be rejected by the parse/verify/round-trip validation.
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string text;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      std::stringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    }
    const std::size_t pos = text.find("store");
    if (pos != std::string::npos) text.replace(pos, 5, "blorp");
    std::ofstream out(entry.path(), std::ios::trunc | std::ios::binary);
    out << text;
  }
  CompileService service2(config);
  const ArtifactPtr again = service2.run(req);
  ASSERT_TRUE(again->ok);
  EXPECT_EQ(service2.stats().compiles, 1u);
  EXPECT_EQ(service2.stats().diskLoadFailures, 1u);
  fs::remove_all(dir);
}

TEST(ServiceEstimates, BitIdenticalToUncachedHarness) {
  Request req;
  req.appId = "NVD-MT";
  req.platform = "SNB";
  req.scale = apps::Scale::Test;

  CompileService service(ServiceConfig{});
  const ArtifactPtr served = service.run(req);
  ASSERT_TRUE(served->ok);
  ASSERT_TRUE(served->hasEstimate);

  const apps::Application& app = apps::applicationById("NVD-MT");
  const PerfComparison direct =
      comparePerformance(app, *perf::findPlatform("SNB"), apps::Scale::Test);
  EXPECT_EQ(served->cyclesWithLM, direct.cyclesWithLM);
  EXPECT_EQ(served->cyclesWithoutLM, direct.cyclesWithoutLM);
  EXPECT_EQ(served->normalized, direct.normalized);

  // A warm hit serves the very same artifact object.
  const ArtifactPtr warm = service.run(req);
  EXPECT_EQ(warm.get(), served.get());
}

TEST(ServiceEstimates, EstimateTimeSplitsIntoTraceAndDigest) {
  Request req;
  req.appId = "NVD-MM-A";
  req.platform = "Fermi";
  req.scale = apps::Scale::Test;

  CompileService service(ServiceConfig{});
  ASSERT_TRUE(service.run(req)->hasEstimate);
  const ServiceStats s = service.stats();
  EXPECT_GT(s.estimateTraceMs, 0.0);
  EXPECT_GT(s.estimateDigestMs, 0.0);
  EXPECT_LE(s.estimateTraceMs + s.estimateDigestMs, s.estimateMs);
}

/// Every field of two served artifacts, estimates compared bitwise.
void expectSameArtifact(const Artifact& a, const Artifact& b) {
  ASSERT_TRUE(a.ok) << a.diagnostics;
  ASSERT_TRUE(b.ok) << b.diagnostics;
  EXPECT_TRUE(a.hasEstimate);
  EXPECT_EQ(a.hasEstimate, b.hasEstimate);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cyclesWithLM),
            std::bit_cast<std::uint64_t>(b.cyclesWithLM));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cyclesWithoutLM),
            std::bit_cast<std::uint64_t>(b.cyclesWithoutLM));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.normalized),
            std::bit_cast<std::uint64_t>(b.normalized));
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_NE(a.proofOriginal, sym::ProofStatus::Unchecked);
  EXPECT_EQ(a.proofOriginal, b.proofOriginal);
  EXPECT_EQ(a.proofTransformed, b.proofTransformed);
  EXPECT_EQ(a.proofNote, b.proofNote);
  EXPECT_EQ(a.proofVetoed, b.proofVetoed);
  EXPECT_EQ(a.report.anyTransformed, b.report.anyTransformed);
  EXPECT_EQ(a.report.barriersRemoved, b.report.barriersRemoved);
  ASSERT_EQ(a.report.buffers.size(), b.report.buffers.size());
  for (std::size_t i = 0; i < a.report.buffers.size(); ++i) {
    const grv::BufferResult& x = a.report.buffers[i];
    const grv::BufferResult& y = b.report.buffers[i];
    EXPECT_EQ(x.bufferName, y.bufferName);
    EXPECT_EQ(x.transformed, y.transformed);
    EXPECT_EQ(x.reason, y.reason);
    EXPECT_EQ(x.glIndex, y.glIndex);
    EXPECT_EQ(x.lsIndex, y.lsIndex);
    EXPECT_EQ(x.llIndex, y.llIndex);
    EXPECT_EQ(x.nglIndex, y.nglIndex);
    EXPECT_EQ(x.solution, y.solution);
    EXPECT_EQ(x.lsPattern, y.lsPattern);
    EXPECT_EQ(x.llPattern, y.llPattern);
    EXPECT_EQ(x.numLocalLoads, y.numLocalLoads);
    EXPECT_EQ(x.numStagingPairs, y.numStagingPairs);
  }
  EXPECT_EQ(a.originalText, b.originalText);
  EXPECT_EQ(a.transformedText, b.transformedText);
}

// A compile that reuses the kernel entry another platform's compile left
// (parsed IR texts, stored proofs) serves exactly what a fresh compile
// of the same request does.
TEST(ServiceKernelReuse, EveryPlatformMatchesAFreshCompile) {
  const std::vector<perf::PlatformSpec> platforms = perf::allPlatforms();
  ASSERT_EQ(platforms.size(), 6u);
  const auto request = [](const std::string& app,
                          const perf::PlatformSpec& platform) {
    Request r;
    r.appId = app;
    r.platform = platform.name;
    r.scale = apps::Scale::Test;
    r.options.prove = true;
    return r;
  };
  for (const auto& app : apps::allApplications()) {
    // One service learns the kernel on the last platform and then reuses
    // it for the other five; a second learns it on the first platform
    // and reuses it for the last.
    std::vector<ArtifactPtr> reused(platforms.size());
    {
      CompileService service(ServiceConfig{});
      ASSERT_TRUE(service.run(request(app->id(), platforms.back()))->ok);
      for (std::size_t p = 0; p + 1 < platforms.size(); ++p) {
        reused[p] = service.run(request(app->id(), platforms[p]));
      }
      const ServiceStats s = service.stats();
      EXPECT_EQ(s.compiles, platforms.size());
      EXPECT_EQ(s.kernelReuses, platforms.size() - 1);
      EXPECT_EQ(s.proofsRun, 2u);
    }
    {
      CompileService service(ServiceConfig{});
      ASSERT_TRUE(service.run(request(app->id(), platforms.front()))->ok);
      reused.back() = service.run(request(app->id(), platforms.back()));
      EXPECT_EQ(service.stats().kernelReuses, 1u);
    }
    for (std::size_t p = 0; p < platforms.size(); ++p) {
      SCOPED_TRACE(app->id() + " on " + platforms[p].name);
      CompileService fresh(ServiceConfig{});
      const ArtifactPtr expected = fresh.run(request(app->id(), platforms[p]));
      EXPECT_EQ(fresh.stats().kernelReuses, 0u);
      expectSameArtifact(*reused[p], *expected);
    }
  }
}

}  // namespace
}  // namespace grover::service
