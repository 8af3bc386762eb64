// A sharded, bounded cache of immutable shared values with CLOCK
// (second-chance) eviction: the Dijkstra-tree cache under NetworkOracle.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace o2o::geo {

/// Values are `shared_ptr<const V>`: a reader that holds one keeps
/// pricing against it after it is evicted. Each shard is a
/// std::shared_mutex over a list (front = newest or last spared) plus a
/// hash index into it; the shard is chosen by the mix64 of the key.
///
/// Lock discipline:
///  * A hit takes only the shared lock. It sets the entry's reference
///    bit, a relaxed atomic written only while clear, so a hot entry's
///    line is not re-dirtied on every hit.
///  * A miss builds the value outside any lock, then inserts it under the
///    exclusive lock with a double-check (two racing builders waste one
///    build, never correctness).
///  * Inserting into a full shard runs second chance from the tail: a
///    referenced tail entry has its bit cleared and moves to the front;
///    the first unreferenced tail entry is evicted. New entries start
///    unreferenced, so an entry outlives an eviction round only if it was
///    hit since it was inserted or last spared.
///
/// Hits and misses count as obs::Counter::kOracleTreeHits/Misses.
template <class V>
class ShardedClockCache {
 public:
  using Value = std::shared_ptr<const V>;

  /// Uses at most `capacity` shards, each holding floor(capacity / shards)
  /// entries, so rounding never pushes the total above `capacity`.
  ShardedClockCache(std::size_t capacity, std::size_t shard_count) {
    O2O_EXPECTS(capacity > 0);
    O2O_EXPECTS(shard_count > 0);
    const std::size_t shards_used = std::min(shard_count, capacity);
    per_shard_capacity_ = capacity / shards_used;
    shards_ = std::vector<Shard>(shards_used);
  }

  /// The value cached under `key`; on a miss, `build()` (returning a V)
  /// runs outside the shard lock and its result is cached.
  template <class Build>
  Value get_or_build(std::uint64_t key, Build&& build) const {
    Shard& shard = shard_for(key);
    {
      std::shared_lock lock(shard.mutex);
      const auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        obs::add(obs::Counter::kOracleTreeHits);
        return it->second->touch();
      }
    }
    obs::add(obs::Counter::kOracleTreeMisses);
    auto built = std::make_shared<const V>(std::forward<Build>(build)());
    std::unique_lock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) return it->second->touch();
    if (shard.entries.size() >= per_shard_capacity_) evict_one(shard);
    shard.entries.emplace_front(key, std::move(built));
    shard.index.emplace(key, shard.entries.begin());
    return shard.entries.front().value;
  }

  /// Whether `key` is currently cached (test probe; does not touch).
  bool contains(std::uint64_t key) const {
    Shard& shard = shard_for(key);
    std::shared_lock lock(shard.mutex);
    return shard.index.contains(key);
  }

  /// Cached entries across shards. Always <= capacity().
  std::size_t size() const {
    std::size_t total = 0;
    for (Shard& shard : shards_) {
      std::shared_lock lock(shard.mutex);
      total += shard.entries.size();
    }
    return total;
  }

  std::size_t capacity() const noexcept { return per_shard_capacity_ * shards_.size(); }
  std::size_t shard_count() const noexcept { return shards_.size(); }

 private:
  struct Entry {
    Entry(std::uint64_t k, Value v) : key(k), value(std::move(v)) {}

    Value touch() {
      if (!referenced.load(std::memory_order_relaxed)) {
        referenced.store(true, std::memory_order_relaxed);
      }
      return value;
    }

    std::uint64_t key;
    Value value;
    std::atomic<bool> referenced{false};
  };

  // One cache line per shard: readers write the shard's lock word, and
  // neighbouring shards must not share it.
  struct alignas(64) Shard {
    std::shared_mutex mutex;
    std::list<Entry> entries;
    std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator> index;
  };

  /// Caller holds the exclusive lock and the shard is non-empty. Ends
  /// within one pass: every spared entry loses its bit.
  static void evict_one(Shard& shard) {
    while (shard.entries.back().referenced.load(std::memory_order_relaxed)) {
      shard.entries.back().referenced.store(false, std::memory_order_relaxed);
      shard.entries.splice(shard.entries.begin(), shard.entries,
                           std::prev(shard.entries.end()));
    }
    shard.index.erase(shard.entries.back().key);
    shard.entries.pop_back();
  }

  Shard& shard_for(std::uint64_t key) const { return shards_[mix64(key) % shards_.size()]; }

  std::size_t per_shard_capacity_ = 0;
  mutable std::vector<Shard> shards_;
};

}  // namespace o2o::geo
