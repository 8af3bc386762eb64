// Exact-key memo of RoadNetwork::nearest_node for NetworkOracle: a
// small per-thread, direct-mapped front table in front of a sharded
// exact-key memo, plus the frame-delta bookkeeping behind
// DistanceOracle::prepare_frame.
#pragma once

#include <bit>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "geo/point.h"

namespace o2o::geo {

class RoadNetwork;
using NodeId = std::int32_t;  // as in road_network.h

/// Keys are the raw coordinate bits, so a hit is always the exact same
/// query: no tolerance and nothing to invalidate. A moved taxi has
/// different bits and simply misses.
///
/// A snap first probes the calling thread's front table, keyed by (memo
/// id, x bits, y bits). A front hit touches no shared cache line. Each
/// memo draws its id from a process-wide 64-bit counter and no id is ever
/// reused, so a memo built at a destroyed memo's address can never read
/// the old one's entries: the front holds only answers that are still
/// exact. A front miss falls through to the sharded memo (a shared lock
/// per shard); a miss there runs the ring search and inserts under the
/// exclusive lock. Front and shared hits both count as
/// obs::Counter::kSnapHits, misses as kSnapMisses.
///
/// The front table is allocated on a thread's first snap through any memo
/// (4,096 slots of 32 B) and shared by every memo that thread uses;
/// threads that never snap pay nothing.
class SnapMemo {
 public:
  /// `network` must outlive the memo and stay unmodified while it lives.
  SnapMemo(const RoadNetwork& network, std::size_t shard_count);
  SnapMemo(const SnapMemo&) = delete;
  SnapMemo& operator=(const SnapMemo&) = delete;

  /// network.nearest_node(p), memoised on the exact bits of `p`.
  NodeId snap(const Point& p) const;

  /// Snaps each point the previous call did not see; a point the previous
  /// call saw is skipped without touching a shard lock, so a steady-state
  /// frame only pays for its churn. Concurrent calls serialise on an
  /// internal mutex.
  void prepare_frame(std::span<const Point> points) const;

  /// Points skipped by the last prepare_frame because the previous call
  /// already warmed them (test/bench probe).
  std::size_t last_prepare_carried() const noexcept { return last_prepare_carried_; }

 private:
  struct Key {
    std::uint64_t x_bits = 0;
    std::uint64_t y_bits = 0;
    bool operator==(const Key&) const = default;
    auto operator<=>(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  static Key key_of(const Point& p) noexcept {
    return {std::bit_cast<std::uint64_t>(p.x), std::bit_cast<std::uint64_t>(p.y)};
  }

  struct alignas(64) Shard {
    std::shared_mutex mutex;
    std::unordered_map<Key, NodeId, KeyHash> memo;
  };

  NodeId shared_snap(const Point& p, const Key& key, std::uint64_t hash) const;

  const RoadNetwork& network_;
  const std::uint64_t id_;
  const std::uint64_t front_salt_;
  mutable std::vector<Shard> shards_;

  // Frame-delta state for prepare_frame; the query paths never touch it.
  mutable std::mutex prepare_mutex_;
  // The last call's points, sorted and unique; the next call's set is
  // built in the spare buffer and swapped in, so neither allocates once
  // both have held a frame's worth.
  mutable std::vector<Key> prepared_;
  mutable std::vector<Key> next_prepared_;
  mutable std::size_t last_prepare_carried_ = 0;
};

}  // namespace o2o::geo
