// A ShardedLru whose misses are filled single-flight: of the callers that
// miss one key at once, one builds the value and the others wait for it.
// It holds the compile service's platform-free kernel entries (DESIGN.md
// §8), so the compiles of one kernel for several platforms analyse and
// prove it once.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "support/sharded_lru.h"

namespace grover {

/// `V` is a nullable handle such as a shared_ptr; null means "no value".
template <typename V>
class SingleFlightLru {
 public:
  SingleFlightLru(std::size_t budget, unsigned shards)
      : lru_(budget, shards) {}

  /// One caller's part in a key: the value it got, or the lead.
  class Claim {
   public:
    Claim(Claim&& other) noexcept
        : store_(std::exchange(other.store_, nullptr)),
          key_(other.key_),
          lead_(std::move(other.lead_)),
          value_(std::move(other.value_)) {}
    Claim& operator=(Claim&&) = delete;
    ~Claim() { settle(V{}, 0); }

    /// True while this caller builds the value and has not published it.
    [[nodiscard]] bool leading() const { return store_ != nullptr; }
    /// The stored value, a leader's or this caller's published one; null
    /// while leading.
    [[nodiscard]] const V& value() const { return value_; }
    /// Leader only: store a non-null `value` at `weight` and hand it to
    /// the waiters.
    void publish(V value, std::size_t weight) {
      value_ = value;
      settle(std::move(value), weight);
    }

   private:
    friend class SingleFlightLru;
    explicit Claim(V value) : value_(std::move(value)) {}
    Claim(SingleFlightLru* store, std::uint64_t key)
        : store_(store), key_(key), lead_(std::in_place) {}

    /// Ends the lead: a null `value` (a leader that leaves without one)
    /// wakes the waiters with nothing, and they claim again.
    void settle(V value, std::size_t weight) {
      if (store_ == nullptr) return;
      // Store before leaving flights_: claim() probes both under mutex_,
      // so it never misses both.
      if (value) store_->lru_.put(key_, value, weight);
      {
        std::lock_guard lock(store_->mutex_);
        store_->flights_.erase(key_);
      }
      lead_->set_value(std::move(value));
      store_ = nullptr;
    }

    SingleFlightLru* store_ = nullptr;  // set while leading
    std::uint64_t key_ = 0;
    std::optional<std::promise<V>> lead_;
    V value_{};
  };

  /// The value stored for `key`; else, when another caller is building
  /// it, the value that caller publishes, waiting for it and calling
  /// `whileWaiting` every millisecond (an exception from it leaves the
  /// wait and the key); else the lead: the caller builds the value and
  /// publish()es it, or leaves without, and one of the callers waiting
  /// then leads in its place. A waiter blocks only on a caller that
  /// already runs, so callers that never wait for each other otherwise
  /// cannot deadlock here.
  [[nodiscard]] Claim claim(std::uint64_t key,
                            const std::function<void()>& whileWaiting) {
    for (;;) {
      std::shared_future<V> building;
      {
        std::lock_guard lock(mutex_);
        if (std::optional<V> hit = lru_.get(key)) return Claim(*hit);
        const auto it = flights_.find(key);
        if (it == flights_.end()) {
          Claim lead(this, key);
          flights_.emplace(key, lead.lead_->get_future().share());
          return lead;
        }
        building = it->second;
      }
      while (building.wait_for(std::chrono::milliseconds(1)) !=
             std::future_status::ready) {
        whileWaiting();
      }
      if (V value = building.get()) return Claim(std::move(value));
    }
  }

  [[nodiscard]] typename ShardedLru<V>::Stats stats() const {
    return lru_.stats();
  }

 private:
  ShardedLru<V> lru_;
  std::mutex mutex_;  // guards flights_ and orders it with lru_ probes
  std::unordered_map<std::uint64_t, std::shared_future<V>> flights_;
};

}  // namespace grover
