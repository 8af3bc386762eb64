// A road network substrate: weighted directed graph over plane nodes with
// Dijkstra shortest paths, a perturbed-grid street builder, and a
// DistanceOracle adapter that snaps arbitrary points to their nearest
// node. Lets every experiment run on road distances instead of the
// Euclidean surface with a one-line change.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <vector>

#include "geo/distance_oracle.h"
#include "geo/point.h"
#include "geo/sharded_clock_cache.h"
#include "geo/snap_memo.h"

namespace o2o::geo {

using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;
inline constexpr double kInfiniteDistance = std::numeric_limits<double>::infinity();

/// Weighted directed graph embedded in the km plane.
///
/// Thread-safety: construction (add_node / add_edge / build_snap_index)
/// is single-threaded; every const query is safe to call concurrently
/// afterwards. The snap index builds itself lazily on the first snap
/// (double-checked under an internal mutex), so concurrent first snaps
/// are also safe.
class RoadNetwork {
 public:
  struct Edge {
    NodeId to = kInvalidNode;
    double length_km = 0.0;
  };

  RoadNetwork() = default;
  RoadNetwork(const RoadNetwork& other);
  RoadNetwork(RoadNetwork&& other) noexcept;
  RoadNetwork& operator=(const RoadNetwork& other);
  RoadNetwork& operator=(RoadNetwork&& other) noexcept;

  /// Adds a node at `position`; returns its id (dense, starting at 0).
  NodeId add_node(Point position);

  /// Adds a directed edge. Length defaults to the Euclidean gap; an
  /// explicit length >= Euclidean models curvy or slow streets.
  void add_edge(NodeId from, NodeId to, double length_km = -1.0);

  /// Adds edges in both directions.
  void add_bidirectional_edge(NodeId a, NodeId b, double length_km = -1.0);

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t edge_count() const noexcept { return edge_count_; }
  const Point& node_position(NodeId id) const;
  const std::vector<Edge>& edges_from(NodeId id) const;

  /// Nearest node to `p` by straight-line distance. Grid-accelerated: the
  /// snap index is built lazily on first use (or explicitly via
  /// build_snap_index), then searched outward ring by ring.
  NodeId nearest_node(const Point& p) const;

  /// Bulk snap: nearest node for every point, in order. One index
  /// ensure + a ring search per point — the frame-level entry point for
  /// snapping a whole taxi/request snapshot at once.
  std::vector<NodeId> snap_many(std::span<const Point> points) const;

  /// Builds the snapping accelerator with an explicit cell size. Optional
  /// since the index now also builds itself (with an auto-sized cell) on
  /// the first nearest_node / snap_many call; call it only to control
  /// `cell_km`. Node insertions invalidate the index; the next snap
  /// rebuilds it.
  void build_snap_index(double cell_km = 0.5);

  /// Single-source shortest path lengths (Dijkstra). Unreachable -> +inf.
  std::vector<double> shortest_paths_from(NodeId source) const;

  /// Single-target shortest path lengths over the reversed graph:
  /// entry v is the length of the shortest v -> target path (+inf when
  /// target is unreachable from v). One call prices a whole candidate
  /// set against a fixed destination — the dispatch hot-path shape.
  std::vector<double> shortest_paths_to(NodeId target) const;

  /// Point-to-point shortest path length; +inf when unreachable.
  /// Bounded bidirectional Dijkstra: grows a forward ball from `source`
  /// and a backward ball from `target`, stopping as soon as the two
  /// frontiers certify the best meeting path — far less work than a full
  /// single-source tree for one-off queries.
  double shortest_path(NodeId source, NodeId target) const;

  /// Node sequence of a shortest path (empty when unreachable).
  std::vector<NodeId> shortest_path_nodes(NodeId source, NodeId target) const;

  /// Drivable polyline from `from` to `to`: straight snap leg to the
  /// nearest node, the shortest node path, straight snap leg off. Falls
  /// back to the direct segment when the endpoints share a node or the
  /// network has no path. Always starts at `from` and ends at `to`.
  std::vector<Point> drive_path(const Point& from, const Point& to) const;

  /// Builds a city as a perturbed grid: `cols` x `rows` intersections with
  /// `spacing_km` blocks, node positions jittered by `jitter_km`, and a
  /// fraction `closure_fraction` of street segments removed (kept
  /// connected by construction of the remaining spanning structure).
  /// `origin` places the grid's south-west corner, so the network can be
  /// laid out directly in a trace's coordinate frame.
  static RoadNetwork make_grid_city(int cols, int rows, double spacing_km,
                                    double jitter_km = 0.0, double closure_fraction = 0.0,
                                    std::uint64_t seed = 1, Point origin = {0.0, 0.0});

  /// Order-sensitive structural hash: node coordinate bit patterns plus
  /// every directed edge (from, to, weight bits), chained through a
  /// 64-bit mixer. Two networks built by the same construction sequence
  /// hash equal; any divergence (a reordered import, a changed weight)
  /// hashes different. Records which graph a run priced on (the
  /// distance-backend provenance). O(n + m), computed on demand; never 0.
  std::uint64_t fingerprint() const;

 private:
  std::vector<Point> nodes_;
  std::vector<std::vector<Edge>> adjacency_;
  std::vector<std::vector<Edge>> reverse_adjacency_;
  std::size_t edge_count_ = 0;

  // Snapping accelerator; mutable + guarded so it can build lazily under
  // const concurrent queries. `snap_ready_` is the release/acquire gate:
  // readers that observe true see a fully built index.
  void ensure_snap_index() const;
  void build_snap_cells(double cell_km) const;
  double default_snap_cell_km() const;
  void copy_from(const RoadNetwork& other);

  mutable std::mutex snap_build_mutex_;
  mutable std::atomic<bool> snap_ready_{false};
  mutable double snap_cell_km_ = 0.0;
  mutable Rect snap_bounds_{};
  mutable int snap_cols_ = 0;
  mutable int snap_rows_ = 0;
  mutable std::vector<std::vector<NodeId>> snap_cells_;
};

/// DistanceOracle over a road network: snaps both endpoints to their
/// nearest nodes and returns the network shortest-path length plus the
/// straight-line snap gaps.
///
/// The engine behind it is a ShardedClockCache of Dijkstra trees (forward
/// trees for distance()/distances_from(), reverse trees for
/// distances_to()) plus a SnapMemo, so repeated endpoints resolve without
/// re-running the ring search. A cache hit takes only its shard's shared
/// lock and a steady-state snap touches no shared cache line; tree
/// construction happens outside the shard lock, so a miss never blocks
/// other shards or readers of the same shard's unrelated entries, and
/// every query is safe to issue from any number of threads —
/// capabilities().concurrent_queries is true, which lets the parallel
/// preference build apply to road-network runs.
class NetworkOracle final : public DistanceOracle {
 public:
  /// `cache_capacity` kAutoCapacity (0) sizes the tree cache to the
  /// frame working set — up to two trees per node (one forward, one
  /// reverse, the most any dispatch frame can root there), floored at
  /// 1024 and capped at ~256 MB of tree storage (the cap wins on very
  /// large networks) — so a steady-state frame never rebuilds a tree it
  /// just used.
  static constexpr std::size_t kAutoCapacity = 0;

  explicit NetworkOracle(const RoadNetwork& network,
                         std::size_t cache_capacity = kAutoCapacity,
                         std::size_t shard_count = 8);

  double distance(const Point& a, const Point& b) const override;

  /// One forward tree rooted at `source`, snapped once, prices the batch.
  std::vector<double> distances_from(const Point& source,
                                     std::span<const Point> targets) const override;

  /// One *reverse* tree rooted at `target` prices the batch: entry i is
  /// D(sources[i], target) with the usual snap gaps. Equal to the
  /// pairwise distance() up to floating-point summation order along the
  /// (identical-length) shortest path.
  std::vector<double> distances_to(std::span<const Point> sources,
                                   const Point& target) const override;

  /// Allocation-free row forms; the allocating overloads above delegate
  /// here, so the priced values are identical byte for byte.
  void distances_from_into(const Point& source, std::span<const Point> targets,
                           double* out) const override;
  void distances_to_into(std::span<const Point> sources, const Point& target,
                         double* out) const override;

  /// Warms the snap memo (and the lazy snap index) for a frame snapshot.
  /// Delta-aware: points already warmed by the previous prepare_frame
  /// call are skipped without touching the shard locks, so a
  /// steady-state frame only pays for its churn. (Dijkstra trees are
  /// never built here — they warm lazily on first query and stay
  /// resident via the cache sizing; see kAutoCapacity.)
  void prepare_frame(std::span<const Point> points) const override;

  /// Points skipped by the last prepare_frame because the previous
  /// frame already warmed them (test/bench probe).
  std::size_t last_prepare_carried() const noexcept { return snaps_.last_prepare_carried(); }

  /// Every internal cache is sharded and locked (concurrent), but the
  /// graph is directed: forward and reverse shortest paths may differ.
  Capabilities capabilities() const noexcept override {
    return {.concurrent_queries = true, .symmetric_distances = false};
  }

  /// Total cached trees across shards (forward + reverse). Always
  /// <= cache_capacity(); shards evict independently.
  std::size_t cache_size() const { return trees_.size(); }
  std::size_t cache_capacity() const noexcept { return trees_.capacity(); }
  std::size_t shard_count() const noexcept { return trees_.shard_count(); }

  /// Whether the tree rooted at `node` is currently cached (test probe).
  bool tree_cached(NodeId node, bool reverse = false) const {
    return trees_.contains(tree_key(node, reverse));
  }

 private:
  using Tree = ShardedClockCache<std::vector<double>>::Value;

  static std::uint64_t tree_key(NodeId node, bool reverse) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 1) |
           static_cast<std::uint64_t>(reverse);
  }
  Tree tree(NodeId node, bool reverse) const;

  const RoadNetwork& network_;
  ShardedClockCache<std::vector<double>> trees_;
  SnapMemo snaps_;
};

}  // namespace o2o::geo
