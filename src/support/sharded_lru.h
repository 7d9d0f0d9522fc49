// Sharded in-memory LRU map from 64-bit keys to values — the memory tier
// of service::ArtifactCache and policy::PolicyStore. Each entry carries a
// caller-chosen weight (bytes for artifacts, 1 for decisions) that counts
// against a per-shard budget; each shard has its own mutex, so lookups
// of different shards never contend.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace grover {

template <typename V>
class ShardedLru {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t weight = 0;
  };

  /// `budget` is the total weight across all shards; each shard gets an
  /// equal slice of it (at least 1).
  ShardedLru(std::size_t budget, unsigned shards) {
    const unsigned n = std::max(1u, shards);
    shardBudget_ = std::max<std::size_t>(1, budget / n);
    shards_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// Probe; a hit bumps the entry's recency.
  [[nodiscard]] std::optional<V> get(std::uint64_t key) {
    Shard& shard = shardFor(key);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }

  /// Insert/overwrite, then evict least-recently-used entries until the
  /// shard fits its budget again. An entry heavier than the whole shard
  /// budget is not retained: it only drops an older value of its own key
  /// and evicts nothing else.
  void put(std::uint64_t key, V value, std::size_t weight) {
    Shard& shard = shardFor(key);
    std::lock_guard lock(shard.mutex);
    if (const auto it = shard.index.find(key); it != shard.index.end()) {
      shard.weight -= it->second->weight;
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    if (weight > shardBudget_) return;
    shard.lru.push_front(Entry{key, std::move(value), weight});
    shard.index[key] = shard.lru.begin();
    shard.weight += weight;
    while (shard.weight > shardBudget_) {
      const Entry& victim = shard.lru.back();
      shard.weight -= victim.weight;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++shard.evictions;
    }
  }

  [[nodiscard]] Stats stats() const {
    Stats s;
    for (const auto& shard : shards_) {
      std::lock_guard lock(shard->mutex);
      s.hits += shard->hits;
      s.misses += shard->misses;
      s.evictions += shard->evictions;
      s.entries += shard->lru.size();
      s.weight += shard->weight;
    }
    return s;
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    V value;
    std::size_t weight = 0;
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    // key → position in lru. std::list iterators stay valid on splice.
    std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator>
        index;
    std::size_t weight = 0;
    std::uint64_t hits = 0, misses = 0, evictions = 0;
  };

  // Keys are FNV-1a digests; their low bits spread well enough.
  Shard& shardFor(std::uint64_t key) { return *shards_[key % shards_.size()]; }

  std::size_t shardBudget_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace grover
