// DistanceOracle over a ContractionHierarchy: the NetworkOracle contract
// (snap both endpoints, price the network leg, add the straight-line snap
// gaps) served from cached *upward search spaces* instead of cached
// full Dijkstra trees. A search space is a few dozen entries where a
// tree is the whole node count, so the cache warms in microseconds and
// a cold point query never pays a city-wide search.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/ch/contraction_hierarchy.h"
#include "geo/distance_oracle.h"
#include "geo/road_network.h"
#include "geo/sharded_clock_cache.h"
#include "geo/snap_memo.h"

namespace o2o::geo {

/// Distance oracle backed by a contraction hierarchy.
///
/// distance(a, b) is `snap_a + leg + snap_b` with the identical
/// expression order as NetworkOracle::distance (and the identical
/// same-node short-circuit to the straight-line distance), so on graphs
/// whose edge weights sum exactly in doubles — integer-weight DIMACS
/// imports — the two oracles return bitwise-equal values. On float
/// weights a shortcut pre-aggregates path segments, so the sums may
/// associate differently: equal up to a few ulps (see DESIGN.md
/// "Distance backends" for the policy and the differential tests that
/// enforce it).
///
/// Internals are NetworkOracle's: a SnapMemo plus a ShardedClockCache of
/// search spaces (forward and backward per node); a hit takes only the
/// shard's shared lock, and spaces build outside it with a double-checked
/// insert. Bulk rows are bucket-style
/// many-to-many: the row endpoint's space becomes a hash index once,
/// then every other endpoint joins its (cached) opposite-direction space
/// against it — no quadratic meeting-node scans.
class CHOracle final : public DistanceOracle {
 public:
  /// kAutoCapacity (0) sizes the space cache to the frame working set —
  /// up to one forward and one backward space per node, floored at 1024.
  /// Spaces are tiny (tens of entries), so unlike the tree cache no
  /// memory cap is needed below half a million nodes.
  static constexpr std::size_t kAutoCapacity = 0;

  /// `network` must be the graph `ch` was preprocessed from (checked via
  /// the fingerprint) and must outlive the oracle; the hierarchy is
  /// owned. Build or load the hierarchy first, then hand it over.
  CHOracle(const RoadNetwork& network, ContractionHierarchy ch,
           std::size_t cache_capacity = kAutoCapacity, std::size_t shard_count = 8);

  /// Convenience: preprocesses `network` in place (seconds at city
  /// scale; prefer a saved .o2och artifact for repeated runs).
  explicit CHOracle(const RoadNetwork& network,
                    ContractionHierarchy::BuildOptions options = {},
                    std::size_t cache_capacity = kAutoCapacity,
                    std::size_t shard_count = 8);

  double distance(const Point& a, const Point& b) const override;

  std::vector<double> distances_from(const Point& source,
                                     std::span<const Point> targets) const override;
  std::vector<double> distances_to(std::span<const Point> sources,
                                   const Point& target) const override;

  /// Bucket many-to-many: the source's forward space is indexed once,
  /// then each target joins its backward space against it. Values are
  /// identical byte for byte to the pairwise distance().
  void distances_from_into(const Point& source, std::span<const Point> targets,
                           double* out) const override;
  void distances_to_into(std::span<const Point> sources, const Point& target,
                         double* out) const override;

  /// Warms the snap memo and both search spaces of every frame point's
  /// snapped node. Delta-aware like NetworkOracle::prepare_frame: points
  /// the previous call warmed are skipped without touching a lock.
  void prepare_frame(std::span<const Point> points) const override;

  /// Points skipped by the last prepare_frame (test/bench probe).
  std::size_t last_prepare_carried() const noexcept { return snaps_.last_prepare_carried(); }

  /// Sharded-and-locked caches (concurrent); directed graph (asymmetric).
  Capabilities capabilities() const noexcept override {
    return {.concurrent_queries = true, .symmetric_distances = false};
  }

  const ContractionHierarchy& hierarchy() const noexcept { return ch_; }

  /// Cached spaces across shards (forward + backward).
  std::size_t cache_size() const { return spaces_.size(); }
  std::size_t cache_capacity() const noexcept { return spaces_.capacity(); }
  std::size_t shard_count() const noexcept { return spaces_.shard_count(); }
  /// Whether `node`'s space is currently cached (test probe).
  bool space_cached(NodeId node, bool backward) const {
    return spaces_.contains(space_key(node, backward));
  }

 private:
  using Space = ShardedClockCache<ContractionHierarchy::SearchSpace>::Value;

  static std::uint64_t space_key(NodeId node, bool backward) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 1) |
           static_cast<std::uint64_t>(backward);
  }
  Space space(NodeId node, bool backward) const;
  /// min over meeting nodes of both spaces (merge join; both sorted by
  /// node id). +inf when disjoint — unreachable.
  static double join(const ContractionHierarchy::SearchSpace& forward,
                     const ContractionHierarchy::SearchSpace& backward);

  const RoadNetwork& network_;
  ContractionHierarchy ch_;
  ShardedClockCache<ContractionHierarchy::SearchSpace> spaces_;
  SnapMemo snaps_;
};

}  // namespace o2o::geo
