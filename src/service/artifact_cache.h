// Content-addressed artifact cache: a sharded in-memory LRU with a byte
// budget, plus an optional on-disk tier — the storage engine in
// src/support, shared with policy::PolicyStore; this file adds the
// artifact codec. Keys are stable 64-bit content hashes of (source,
// transform options, platform, scale) — see CompileService::cacheKey.
//
// The on-disk format embeds the modules exactly as ir/printer.h renders
// them and reloads them through ir::parseModule: the textual IR
// round-trip IS the cache format (no separate serializer). A loaded
// artifact is only served when its header parses, the key matches, the
// modules reparse + verify, and print(parse(text)) == text; anything
// else counts as corruption and falls back to recompilation.
#pragma once

#include <cstdint>
#include <string>

#include "service/artifact.h"
#include "support/disk_tier.h"
#include "support/sharded_lru.h"

namespace grover::service {

class ArtifactCache {
 public:
  struct Config {
    /// Total in-memory budget across all shards. An artifact larger than
    /// its shard's slice is never retained in memory (it is still
    /// returned to the requester, and still hits the disk tier).
    std::size_t maxBytes = 256u << 20;
    unsigned shards = 8;
    /// Directory of the on-disk tier; empty = memory only.
    std::string diskDir;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytesInUse = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t diskMisses = 0;
    std::uint64_t diskLoadFailures = 0;  // corrupt/unreadable artifacts
    std::uint64_t diskStores = 0;
  };

  explicit ArtifactCache(Config config);

  /// In-memory probe; bumps LRU recency on hit.
  [[nodiscard]] ArtifactPtr get(std::uint64_t key);

  /// Insert/overwrite; evicts least-recently-used entries of the shard
  /// until it fits its byte budget again. An artifact larger than the
  /// shard's slice evicts nothing and is not retained.
  void put(std::uint64_t key, ArtifactPtr artifact);

  /// Disk-tier probe. Returns null on miss, on a disabled disk tier, and
  /// on any corruption (counted in diskLoadFailures). Does NOT populate
  /// the memory tier — callers put() the result so the two tiers stay
  /// decoupled.
  [[nodiscard]] ArtifactPtr loadFromDisk(std::uint64_t key);

  /// Persist an artifact (atomic write-then-rename). No-op without a
  /// disk tier; write errors are swallowed — the disk tier is an
  /// optimization, never a correctness dependency.
  void storeToDisk(std::uint64_t key, const Artifact& artifact);

  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const Config& config() const { return config_; }

  /// Path of the artifact file for a key ("" without a disk tier).
  [[nodiscard]] std::string diskPath(std::uint64_t key) const;

 private:
  Config config_;
  ShardedLru<ArtifactPtr> memory_;
  DiskTier disk_;
};

}  // namespace grover::service
