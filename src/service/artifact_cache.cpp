#include "service/artifact_cache.h"

#include "ir/ir_parser.h"
#include "ir/printer.h"
#include "support/diagnostics.h"
#include "support/record.h"

namespace grover::service {
namespace {

// ---- on-disk artifact codec ----------------------------------------------
//
// A "groverart 2" record (support/record.h). Module payloads are the exact
// ir::printModule output; the loader reparses and re-prints them and
// requires a byte-identical fixed point.

constexpr const char* kMagic = "groverart 2";

std::string serialize(std::uint64_t key, const Artifact& a) {
  RecordWriter w(kMagic, key);
  w.num("ok", a.ok ? 1 : 0);
  w.str("diagnostics", a.diagnostics);
  w.num("anyTransformed", a.report.anyTransformed ? 1 : 0);
  w.num("barriersRemoved", a.report.barriersRemoved ? 1 : 0);
  w.num("numBuffers", static_cast<std::int64_t>(a.report.buffers.size()));
  for (const auto& b : a.report.buffers) {
    w.str("name", b.bufferName);
    w.num("transformed", b.transformed ? 1 : 0);
    w.str("reason", b.reason);
    w.str("glIndex", b.glIndex);
    w.str("lsIndex", b.lsIndex);
    w.str("llIndex", b.llIndex);
    w.str("nglIndex", b.nglIndex);
    w.str("solution", b.solution);
    w.num("lsPattern", static_cast<std::int64_t>(b.lsPattern));
    w.num("llPattern", static_cast<std::int64_t>(b.llPattern));
    w.num("numLocalLoads", b.numLocalLoads);
    w.num("numStagingPairs", b.numStagingPairs);
  }
  w.num("hasEstimate", a.hasEstimate ? 1 : 0);
  w.bits("cyclesWithLM", a.cyclesWithLM);
  w.bits("cyclesWithoutLM", a.cyclesWithoutLM);
  w.bits("normalized", a.normalized);
  w.num("outcome", static_cast<std::int64_t>(a.outcome));
  w.num("proofOriginal", static_cast<std::int64_t>(a.proofOriginal));
  w.num("proofTransformed", static_cast<std::int64_t>(a.proofTransformed));
  w.str("proofNote", a.proofNote);
  w.num("proofVetoed", a.proofVetoed ? 1 : 0);
  w.str("original", a.originalText);
  w.str("transformed", a.transformedText);
  return w.finish();
}

/// Reject module text the parser would not reproduce byte-identically.
void requireRoundTrip(const std::string& text) {
  if (text.empty()) return;
  ir::Context ctx;
  auto module = ir::parseModule(ctx, text);  // verifies every function
  if (ir::printModule(*module) != text) {
    throw GroverError("artifact: module text is not print-parse stable");
  }
}

ArtifactPtr deserialize(std::uint64_t key, std::string text) {
  RecordReader r(std::move(text), kMagic, key);
  auto a = std::make_shared<Artifact>();
  a->ok = r.num("ok") != 0;
  a->diagnostics = r.str("diagnostics");
  a->report.anyTransformed = r.num("anyTransformed") != 0;
  a->report.barriersRemoved = r.num("barriersRemoved") != 0;
  const std::int64_t numBuffers = r.num("numBuffers");
  if (numBuffers < 0 || numBuffers > 4096) {
    throw GroverError("artifact: bad buffer count");
  }
  for (std::int64_t i = 0; i < numBuffers; ++i) {
    grv::BufferResult b;
    b.bufferName = r.str("name");
    b.transformed = r.num("transformed") != 0;
    b.reason = r.str("reason");
    b.glIndex = r.str("glIndex");
    b.lsIndex = r.str("lsIndex");
    b.llIndex = r.str("llIndex");
    b.nglIndex = r.str("nglIndex");
    b.solution = r.str("solution");
    b.lsPattern = r.enumerator("lsPattern", grv::IndexPattern::Other);
    b.llPattern = r.enumerator("llPattern", grv::IndexPattern::Other);
    b.numLocalLoads = static_cast<unsigned>(r.num("numLocalLoads"));
    b.numStagingPairs = static_cast<unsigned>(r.num("numStagingPairs"));
    a->report.buffers.push_back(std::move(b));
  }
  a->hasEstimate = r.num("hasEstimate") != 0;
  a->cyclesWithLM = r.bits("cyclesWithLM");
  a->cyclesWithoutLM = r.bits("cyclesWithoutLM");
  a->normalized = r.bits("normalized");
  a->outcome = r.enumerator("outcome", perf::Outcome::Similar);
  a->proofOriginal = r.enumerator("proofOriginal", sym::ProofStatus::Unknown);
  a->proofTransformed =
      r.enumerator("proofTransformed", sym::ProofStatus::Unknown);
  a->proofNote = r.str("proofNote");
  a->proofVetoed = r.num("proofVetoed") != 0;
  a->originalText = r.str("original");
  a->transformedText = r.str("transformed");
  r.finish();
  requireRoundTrip(a->originalText);
  requireRoundTrip(a->transformedText);
  return a;
}

}  // namespace

ArtifactCache::ArtifactCache(Config config)
    : config_(std::move(config)),
      memory_(config_.maxBytes, config_.shards),
      disk_(config_.diskDir, ".grvart") {}

ArtifactPtr ArtifactCache::get(std::uint64_t key) {
  return memory_.get(key).value_or(nullptr);
}

void ArtifactCache::put(std::uint64_t key, ArtifactPtr artifact) {
  if (artifact == nullptr) return;
  const std::size_t bytes = artifact->byteSize();
  memory_.put(key, std::move(artifact), bytes);
}

std::string ArtifactCache::diskPath(std::uint64_t key) const {
  return disk_.path(key);
}

ArtifactPtr ArtifactCache::loadFromDisk(std::uint64_t key) {
  return disk_
      .load(key, [key](std::string text) {
        return deserialize(key, std::move(text));
      })
      .value_or(nullptr);
}

void ArtifactCache::storeToDisk(std::uint64_t key, const Artifact& artifact) {
  if (!config_.diskDir.empty()) disk_.write(key, serialize(key, artifact));
}

ArtifactCache::Stats ArtifactCache::stats() const {
  const auto memory = memory_.stats();
  const DiskTier::Stats disk = disk_.stats();
  Stats s;
  s.hits = memory.hits;
  s.misses = memory.misses;
  s.evictions = memory.evictions;
  s.entries = memory.entries;
  s.bytesInUse = memory.weight;
  s.diskHits = disk.hits;
  s.diskMisses = disk.misses;
  s.diskLoadFailures = disk.failures;
  s.diskStores = disk.stores;
  return s;
}

}  // namespace grover::service
