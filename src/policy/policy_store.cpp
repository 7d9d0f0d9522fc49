#include "policy/policy_store.h"

#include <chrono>
#include <cmath>

#include "support/diagnostics.h"
#include "support/record.h"

namespace grover::policy {
namespace {

// ---- on-disk decision codec ----------------------------------------------
//
// A "groverpol 2" record (support/record.h). Version 2 added the proof
// status and store timestamp; v1 files fail the header check and are
// dropped like any other corrupt entry — decisions are re-derivable, so a
// one-time cold restart beats a migration path.

constexpr const char* kMagic = "groverpol 2";

std::string serialize(std::uint64_t key, const Decision& d) {
  RecordWriter w(kMagic, key);
  w.num("variant", static_cast<std::int64_t>(d.variant));
  w.num("outcome", static_cast<std::int64_t>(d.predictedOutcome));
  w.bits("predictedNp", d.predictedNp);
  w.bits("confidence", d.confidence);
  w.str("source", d.source);
  w.bits("ewmaNp", d.ewmaNp);
  w.num("observations", static_cast<std::int64_t>(d.observations));
  w.num("mismatch", d.mismatch ? 1 : 0);
  w.num("proof", static_cast<std::int64_t>(d.proof));
  w.num("storedAtMs", static_cast<std::int64_t>(d.storedAtMs));
  return w.finish();
}

Decision deserialize(std::uint64_t key, std::string text) {
  RecordReader r(std::move(text), kMagic, key);
  Decision d;
  d.variant = r.enumerator("variant", Variant::Transformed);
  d.predictedOutcome = r.enumerator("outcome", perf::Outcome::Similar);
  d.predictedNp = r.bits("predictedNp");
  d.confidence = r.bits("confidence");
  d.source = r.str("source");
  d.ewmaNp = r.bits("ewmaNp");
  const std::int64_t observations = r.num("observations");
  if (observations < 0) throw GroverError("policy: bad observation count");
  d.observations = static_cast<std::uint64_t>(observations);
  d.mismatch = r.num("mismatch") != 0;
  d.proof = r.enumerator("proof", sym::ProofStatus::Unknown);
  const std::int64_t storedAtMs = r.num("storedAtMs");
  if (storedAtMs < 0) throw GroverError("policy: bad store timestamp");
  d.storedAtMs = static_cast<std::uint64_t>(storedAtMs);
  r.finish();
  return d;
}

}  // namespace

const char* toString(Variant v) {
  switch (v) {
    case Variant::Original: return "with-local-memory";
    case Variant::Transformed: return "without-local-memory";
  }
  return "?";
}

Variant Decision::variantFor(double np, double threshold) {
  return np > 1.0 + threshold ? Variant::Transformed : Variant::Original;
}

double decayedConfidence(const Decision& d, double priorConfidence,
                         std::uint64_t nowMs, std::uint64_t horizonMs) {
  if (horizonMs == 0 || d.storedAtMs == 0 || nowMs <= d.storedAtMs) {
    return d.confidence;
  }
  const double age = static_cast<double>(nowMs - d.storedAtMs);
  const double factor = std::exp2(-age / static_cast<double>(horizonMs));
  // Decay only toward the floor; a decision already below the prior's
  // confidence (e.g. a contradicted estimate) is not pulled back up.
  if (d.confidence <= priorConfidence) return d.confidence;
  return priorConfidence + (d.confidence - priorConfidence) * factor;
}

bool shouldRemeasure(const Decision& d, std::uint64_t nowMs,
                     std::uint64_t horizonMs) {
  if (!d.mismatch || horizonMs == 0 || d.storedAtMs == 0) return false;
  return nowMs >= d.storedAtMs + horizonMs;
}

PolicyStore::PolicyStore(Config config)
    : config_(std::move(config)),
      memory_(config_.maxEntries, config_.shards),
      disk_(config_.diskDir, ".grvpol") {}

std::optional<Decision> PolicyStore::lookup(std::uint64_t key) {
  if (std::optional<Decision> hit = memory_.get(key)) return hit;
  std::optional<Decision> fromDisk = disk_.load(key, [key](std::string text) {
    return deserialize(key, std::move(text));
  });
  if (fromDisk.has_value()) memory_.put(key, *fromDisk, 1);
  return fromDisk;
}

void PolicyStore::store(std::uint64_t key, const Decision& decision) {
  // Stamp the store time unless the caller set one (tests construct
  // deliberately stale entries to exercise decay).
  Decision stamped = decision;
  if (stamped.storedAtMs == 0) {
    stamped.storedAtMs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  }
  memory_.put(key, stamped, 1);
  if (!config_.diskDir.empty()) disk_.write(key, serialize(key, stamped));
}

std::string PolicyStore::diskPath(std::uint64_t key) const {
  return disk_.path(key);
}

PolicyStore::Stats PolicyStore::stats() const {
  const auto memory = memory_.stats();
  const DiskTier::Stats disk = disk_.stats();
  Stats s;
  s.hits = memory.hits;
  s.misses = memory.misses;
  s.evictions = memory.evictions;
  s.entries = memory.entries;
  s.diskHits = disk.hits;
  s.diskLoadFailures = disk.failures;
  s.diskStores = disk.stores;
  return s;
}

}  // namespace grover::policy
