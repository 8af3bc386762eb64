#include "geo/road_network.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>
#include <utility>

#include "util/rng.h"

namespace o2o::geo {

RoadNetwork::RoadNetwork(const RoadNetwork& other) { copy_from(other); }

RoadNetwork& RoadNetwork::operator=(const RoadNetwork& other) {
  if (this != &other) copy_from(other);
  return *this;
}

RoadNetwork::RoadNetwork(RoadNetwork&& other) noexcept
    : nodes_(std::move(other.nodes_)),
      adjacency_(std::move(other.adjacency_)),
      reverse_adjacency_(std::move(other.reverse_adjacency_)),
      edge_count_(other.edge_count_),
      snap_ready_(other.snap_ready_.load(std::memory_order_relaxed)),
      snap_cell_km_(other.snap_cell_km_),
      snap_bounds_(other.snap_bounds_),
      snap_cols_(other.snap_cols_),
      snap_rows_(other.snap_rows_),
      snap_cells_(std::move(other.snap_cells_)) {}

RoadNetwork& RoadNetwork::operator=(RoadNetwork&& other) noexcept {
  if (this != &other) {
    nodes_ = std::move(other.nodes_);
    adjacency_ = std::move(other.adjacency_);
    reverse_adjacency_ = std::move(other.reverse_adjacency_);
    edge_count_ = other.edge_count_;
    snap_ready_.store(other.snap_ready_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    snap_cell_km_ = other.snap_cell_km_;
    snap_bounds_ = other.snap_bounds_;
    snap_cols_ = other.snap_cols_;
    snap_rows_ = other.snap_rows_;
    snap_cells_ = std::move(other.snap_cells_);
  }
  return *this;
}

void RoadNetwork::copy_from(const RoadNetwork& other) {
  nodes_ = other.nodes_;
  adjacency_ = other.adjacency_;
  reverse_adjacency_ = other.reverse_adjacency_;
  edge_count_ = other.edge_count_;
  // Hold the source's build mutex so a concurrent lazy build on `other`
  // cannot be observed half-written.
  std::lock_guard lock(other.snap_build_mutex_);
  snap_cell_km_ = other.snap_cell_km_;
  snap_bounds_ = other.snap_bounds_;
  snap_cols_ = other.snap_cols_;
  snap_rows_ = other.snap_rows_;
  snap_cells_ = other.snap_cells_;
  snap_ready_.store(other.snap_ready_.load(std::memory_order_acquire),
                    std::memory_order_release);
}

NodeId RoadNetwork::add_node(Point position) {
  nodes_.push_back(position);
  adjacency_.emplace_back();
  reverse_adjacency_.emplace_back();
  // A new node falls outside the built cell grid; force a rebuild on the
  // next snap.
  snap_ready_.store(false, std::memory_order_release);
  return static_cast<NodeId>(nodes_.size() - 1);
}

void RoadNetwork::add_edge(NodeId from, NodeId to, double length_km) {
  O2O_EXPECTS(from >= 0 && static_cast<std::size_t>(from) < nodes_.size());
  O2O_EXPECTS(to >= 0 && static_cast<std::size_t>(to) < nodes_.size());
  if (length_km < 0.0) {
    length_km = euclidean_distance(nodes_[static_cast<std::size_t>(from)],
                                   nodes_[static_cast<std::size_t>(to)]);
  }
  adjacency_[static_cast<std::size_t>(from)].push_back(Edge{to, length_km});
  reverse_adjacency_[static_cast<std::size_t>(to)].push_back(Edge{from, length_km});
  ++edge_count_;
}

void RoadNetwork::add_bidirectional_edge(NodeId a, NodeId b, double length_km) {
  add_edge(a, b, length_km);
  add_edge(b, a, length_km);
}

const Point& RoadNetwork::node_position(NodeId id) const {
  O2O_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)];
}

const std::vector<RoadNetwork::Edge>& RoadNetwork::edges_from(NodeId id) const {
  O2O_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return adjacency_[static_cast<std::size_t>(id)];
}

double RoadNetwork::default_snap_cell_km() const {
  Rect bounds{nodes_[0], nodes_[0]};
  for (const Point& p : nodes_) {
    bounds.lo.x = std::min(bounds.lo.x, p.x);
    bounds.lo.y = std::min(bounds.lo.y, p.y);
    bounds.hi.x = std::max(bounds.hi.x, p.x);
    bounds.hi.y = std::max(bounds.hi.y, p.y);
  }
  const double extent = std::max(bounds.width(), bounds.height());
  if (extent <= 0.0) return 0.5;
  // Aim for ~one node per cell on average: extent / sqrt(n) cells per side.
  const double per_side = std::sqrt(static_cast<double>(nodes_.size()));
  return std::max(0.05, extent / std::max(1.0, per_side));
}

void RoadNetwork::ensure_snap_index() const {
  if (snap_ready_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(snap_build_mutex_);
  if (snap_ready_.load(std::memory_order_relaxed)) return;
  build_snap_cells(default_snap_cell_km());
  snap_ready_.store(true, std::memory_order_release);
}

void RoadNetwork::build_snap_index(double cell_km) {
  O2O_EXPECTS(cell_km > 0.0);
  O2O_EXPECTS(!nodes_.empty());
  std::lock_guard lock(snap_build_mutex_);
  build_snap_cells(cell_km);
  snap_ready_.store(true, std::memory_order_release);
}

void RoadNetwork::build_snap_cells(double cell_km) const {
  snap_cell_km_ = cell_km;
  snap_bounds_ = Rect{nodes_[0], nodes_[0]};
  for (const Point& p : nodes_) {
    snap_bounds_.lo.x = std::min(snap_bounds_.lo.x, p.x);
    snap_bounds_.lo.y = std::min(snap_bounds_.lo.y, p.y);
    snap_bounds_.hi.x = std::max(snap_bounds_.hi.x, p.x);
    snap_bounds_.hi.y = std::max(snap_bounds_.hi.y, p.y);
  }
  snap_cols_ = std::max(1, static_cast<int>(std::ceil(snap_bounds_.width() / cell_km)));
  snap_rows_ = std::max(1, static_cast<int>(std::ceil(snap_bounds_.height() / cell_km)));
  snap_cells_.assign(static_cast<std::size_t>(snap_cols_) * static_cast<std::size_t>(snap_rows_),
                     {});
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Point& p = nodes_[i];
    const int x = std::clamp(static_cast<int>((p.x - snap_bounds_.lo.x) / cell_km), 0,
                             snap_cols_ - 1);
    const int y = std::clamp(static_cast<int>((p.y - snap_bounds_.lo.y) / cell_km), 0,
                             snap_rows_ - 1);
    snap_cells_[static_cast<std::size_t>(y * snap_cols_ + x)].push_back(
        static_cast<NodeId>(i));
  }
}

NodeId RoadNetwork::nearest_node(const Point& p) const {
  O2O_EXPECTS(!nodes_.empty());
  ensure_snap_index();
  if (snap_cols_ > 0) {
    // Search outward ring by ring from p's cell until a candidate is found
    // and the ring distance exceeds the best candidate distance.
    const auto cell_of = [&](double v, double lo) {
      return static_cast<int>(std::floor((v - lo) / snap_cell_km_));
    };
    int cx = std::clamp(cell_of(p.x, snap_bounds_.lo.x), 0, snap_cols_ - 1);
    int cy = std::clamp(cell_of(p.y, snap_bounds_.lo.y), 0, snap_rows_ - 1);
    NodeId best = kInvalidNode;
    double best_sq = kInfiniteDistance;
    const int max_ring = std::max(snap_cols_, snap_rows_);
    for (int ring = 0; ring <= max_ring; ++ring) {
      if (best != kInvalidNode) {
        const double safe = (static_cast<double>(ring) - 1.0) * snap_cell_km_;
        if (safe > 0.0 && safe * safe >= best_sq) break;
      }
      for (int dy = -ring; dy <= ring; ++dy) {
        for (int dx = -ring; dx <= ring; ++dx) {
          if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;
          const int x = cx + dx;
          const int y = cy + dy;
          if (x < 0 || x >= snap_cols_ || y < 0 || y >= snap_rows_) continue;
          for (NodeId id : snap_cells_[static_cast<std::size_t>(y * snap_cols_ + x)]) {
            const double d = squared_distance(p, nodes_[static_cast<std::size_t>(id)]);
            if (d < best_sq) {
              best_sq = d;
              best = id;
            }
          }
        }
      }
    }
    if (best != kInvalidNode) return best;
  }
  NodeId best = 0;
  double best_sq = squared_distance(p, nodes_[0]);
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const double d = squared_distance(p, nodes_[i]);
    if (d < best_sq) {
      best_sq = d;
      best = static_cast<NodeId>(i);
    }
  }
  return best;
}

std::vector<NodeId> RoadNetwork::snap_many(std::span<const Point> points) const {
  std::vector<NodeId> result(points.size());
  if (points.empty()) return result;
  ensure_snap_index();
  for (std::size_t i = 0; i < points.size(); ++i) {
    result[i] = nearest_node(points[i]);
  }
  return result;
}

namespace {

std::vector<double> dijkstra_tree(const std::vector<std::vector<RoadNetwork::Edge>>& graph,
                                  NodeId source) {
  std::vector<double> dist(graph.size(), kInfiniteDistance);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> frontier;
  dist[static_cast<std::size_t>(source)] = 0.0;
  frontier.emplace(0.0, source);
  while (!frontier.empty()) {
    const auto [d, node] = frontier.top();
    frontier.pop();
    if (d > dist[static_cast<std::size_t>(node)]) continue;
    for (const RoadNetwork::Edge& edge : graph[static_cast<std::size_t>(node)]) {
      const double candidate = d + edge.length_km;
      if (candidate < dist[static_cast<std::size_t>(edge.to)]) {
        dist[static_cast<std::size_t>(edge.to)] = candidate;
        frontier.emplace(candidate, edge.to);
      }
    }
  }
  return dist;
}

}  // namespace

std::vector<double> RoadNetwork::shortest_paths_from(NodeId source) const {
  O2O_EXPECTS(source >= 0 && static_cast<std::size_t>(source) < nodes_.size());
  return dijkstra_tree(adjacency_, source);
}

std::vector<double> RoadNetwork::shortest_paths_to(NodeId target) const {
  O2O_EXPECTS(target >= 0 && static_cast<std::size_t>(target) < nodes_.size());
  return dijkstra_tree(reverse_adjacency_, target);
}

double RoadNetwork::shortest_path(NodeId source, NodeId target) const {
  O2O_EXPECTS(source >= 0 && static_cast<std::size_t>(source) < nodes_.size());
  O2O_EXPECTS(target >= 0 && static_cast<std::size_t>(target) < nodes_.size());
  if (source == target) return 0.0;
  // Bidirectional Dijkstra. `best` is updated on every successful
  // relaxation by adding the opposite search's current label, so by the
  // time min-key(forward) + min-key(backward) >= best — or either search
  // is exhausted — `best` is the exact s-t distance (the optimal path's
  // meeting node has had both labels finalized, and the later of the two
  // finalizations saw the earlier one).
  using Item = std::pair<double, NodeId>;
  using Queue = std::priority_queue<Item, std::vector<Item>, std::greater<>>;
  std::vector<double> dist_f(nodes_.size(), kInfiniteDistance);
  std::vector<double> dist_b(nodes_.size(), kInfiniteDistance);
  Queue frontier_f;
  Queue frontier_b;
  dist_f[static_cast<std::size_t>(source)] = 0.0;
  dist_b[static_cast<std::size_t>(target)] = 0.0;
  frontier_f.emplace(0.0, source);
  frontier_b.emplace(0.0, target);
  double best = kInfiniteDistance;

  const auto expand = [&](Queue& frontier, std::vector<double>& dist,
                          const std::vector<double>& other_dist,
                          const std::vector<std::vector<Edge>>& graph) {
    const auto [d, node] = frontier.top();
    frontier.pop();
    if (d > dist[static_cast<std::size_t>(node)]) return;
    for (const Edge& edge : graph[static_cast<std::size_t>(node)]) {
      const double candidate = d + edge.length_km;
      if (candidate < dist[static_cast<std::size_t>(edge.to)]) {
        dist[static_cast<std::size_t>(edge.to)] = candidate;
        frontier.emplace(candidate, edge.to);
        const double through = candidate + other_dist[static_cast<std::size_t>(edge.to)];
        if (through < best) best = through;
      }
    }
  };

  while (!frontier_f.empty() || !frontier_b.empty()) {
    const double top_f = frontier_f.empty() ? kInfiniteDistance : frontier_f.top().first;
    const double top_b = frontier_b.empty() ? kInfiniteDistance : frontier_b.top().first;
    if (top_f + top_b >= best) break;
    if (top_f <= top_b) {
      expand(frontier_f, dist_f, dist_b, adjacency_);
    } else {
      expand(frontier_b, dist_b, dist_f, reverse_adjacency_);
    }
  }
  return best;
}

std::vector<NodeId> RoadNetwork::shortest_path_nodes(NodeId source, NodeId target) const {
  O2O_EXPECTS(source >= 0 && static_cast<std::size_t>(source) < nodes_.size());
  O2O_EXPECTS(target >= 0 && static_cast<std::size_t>(target) < nodes_.size());
  std::vector<double> dist(nodes_.size(), kInfiniteDistance);
  std::vector<NodeId> parent(nodes_.size(), kInvalidNode);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> frontier;
  dist[static_cast<std::size_t>(source)] = 0.0;
  frontier.emplace(0.0, source);
  while (!frontier.empty()) {
    const auto [d, node] = frontier.top();
    frontier.pop();
    if (node == target) break;
    if (d > dist[static_cast<std::size_t>(node)]) continue;
    for (const Edge& edge : adjacency_[static_cast<std::size_t>(node)]) {
      const double candidate = d + edge.length_km;
      if (candidate < dist[static_cast<std::size_t>(edge.to)]) {
        dist[static_cast<std::size_t>(edge.to)] = candidate;
        parent[static_cast<std::size_t>(edge.to)] = node;
        frontier.emplace(candidate, edge.to);
      }
    }
  }
  if (dist[static_cast<std::size_t>(target)] == kInfiniteDistance) return {};
  std::vector<NodeId> path;
  for (NodeId at = target; at != kInvalidNode; at = parent[static_cast<std::size_t>(at)]) {
    path.push_back(at);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<Point> RoadNetwork::drive_path(const Point& from, const Point& to) const {
  std::vector<Point> path;
  path.push_back(from);
  const NodeId source = nearest_node(from);
  const NodeId target = nearest_node(to);
  if (source != target) {
    const std::vector<NodeId> nodes = shortest_path_nodes(source, target);
    for (NodeId node : nodes) {
      path.push_back(node_position(node));
    }
    // Unreachable: `nodes` is empty and the path degenerates to the
    // direct segment below.
  }
  path.push_back(to);
  return path;
}

RoadNetwork RoadNetwork::make_grid_city(int cols, int rows, double spacing_km,
                                        double jitter_km, double closure_fraction,
                                        std::uint64_t seed, Point origin) {
  O2O_EXPECTS(cols >= 2 && rows >= 2);
  O2O_EXPECTS(spacing_km > 0.0);
  O2O_EXPECTS(jitter_km >= 0.0 && jitter_km < spacing_km / 2.0);
  O2O_EXPECTS(closure_fraction >= 0.0 && closure_fraction < 1.0);
  Rng rng(seed);
  RoadNetwork network;
  const auto node_at = [cols](int x, int y) { return static_cast<NodeId>(y * cols + x); };
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      const double jx = jitter_km > 0.0 ? rng.uniform(-jitter_km, jitter_km) : 0.0;
      const double jy = jitter_km > 0.0 ? rng.uniform(-jitter_km, jitter_km) : 0.0;
      network.add_node(Point{origin.x + x * spacing_km + jx,
                             origin.y + y * spacing_km + jy});
    }
  }
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      // Always keep the "spanning comb" (all vertical streets plus the
      // bottom row) so the city stays strongly connected; closures only
      // remove the remaining redundant segments.
      if (x + 1 < cols) {
        const bool essential = (y == 0);
        if (essential || !rng.bernoulli(closure_fraction)) {
          network.add_bidirectional_edge(node_at(x, y), node_at(x + 1, y));
        }
      }
      if (y + 1 < rows) {
        network.add_bidirectional_edge(node_at(x, y), node_at(x, y + 1));
      }
    }
  }
  network.build_snap_index(std::max(0.25, spacing_km));
  return network;
}

std::uint64_t RoadNetwork::fingerprint() const {
  std::uint64_t h = mix64(nodes_.size() ^ (static_cast<std::uint64_t>(edge_count_) << 32));
  for (const Point& p : nodes_) {
    h = mix64(h ^ std::bit_cast<std::uint64_t>(p.x));
    h = mix64(h ^ std::bit_cast<std::uint64_t>(p.y));
  }
  for (const std::vector<Edge>& edges : adjacency_) {
    for (const Edge& edge : edges) {
      h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(edge.to)));
      h = mix64(h ^ std::bit_cast<std::uint64_t>(edge.length_km));
    }
  }
  // 0 is DistanceBackend::graph_fingerprint's "no graph"; never emit it.
  return h == 0 ? 1 : h;
}

// ---------------------------------------------------------------------------
// NetworkOracle
// ---------------------------------------------------------------------------

namespace {

std::size_t tree_cache_capacity(const RoadNetwork& network, std::size_t requested) {
  O2O_EXPECTS(network.node_count() > 0);
  if (requested != NetworkOracle::kAutoCapacity) return requested;
  // Frame working set: at most one forward and one reverse tree per
  // node, memory-capped (a tree is node_count doubles). The memory cap
  // wins over the working-set floor on very large networks.
  const std::size_t working_set = std::max<std::size_t>(1024, 2 * network.node_count() + 64);
  const std::size_t memory_bound =
      (std::size_t{256} << 20) / (sizeof(double) * network.node_count());
  return std::max<std::size_t>(64, std::min(working_set, memory_bound));
}

}  // namespace

NetworkOracle::NetworkOracle(const RoadNetwork& network, std::size_t cache_capacity,
                             std::size_t shard_count)
    : network_(network),
      trees_(tree_cache_capacity(network, cache_capacity), shard_count),
      snaps_(network, trees_.shard_count()) {}

NetworkOracle::Tree NetworkOracle::tree(NodeId node, bool reverse) const {
  return trees_.get_or_build(tree_key(node, reverse), [&] {
    return reverse ? network_.shortest_paths_to(node) : network_.shortest_paths_from(node);
  });
}

double NetworkOracle::distance(const Point& a, const Point& b) const {
  const NodeId from = snaps_.snap(a);
  const NodeId to = snaps_.snap(b);
  const double snap_a = euclidean_distance(a, network_.node_position(from));
  const double snap_b = euclidean_distance(b, network_.node_position(to));
  if (from == to) return euclidean_distance(a, b);
  const double network_leg = (*tree(from, /*reverse=*/false))[static_cast<std::size_t>(to)];
  return snap_a + network_leg + snap_b;
}

std::vector<double> NetworkOracle::distances_from(const Point& source,
                                                  std::span<const Point> targets) const {
  std::vector<double> result(targets.size());
  distances_from_into(source, targets, result.data());
  return result;
}

std::vector<double> NetworkOracle::distances_to(std::span<const Point> sources,
                                                const Point& target) const {
  std::vector<double> result(sources.size());
  distances_to_into(sources, target, result.data());
  return result;
}

void NetworkOracle::distances_from_into(const Point& source, std::span<const Point> targets,
                                        double* out) const {
  if (targets.empty()) return;
  const NodeId from = snaps_.snap(source);
  const double snap_a = euclidean_distance(source, network_.node_position(from));
  Tree tree_ptr;  // fetched on first use: an all-same-node batch needs no tree
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const NodeId to = snaps_.snap(targets[i]);
    if (from == to) {
      out[i] = euclidean_distance(source, targets[i]);
      continue;
    }
    if (!tree_ptr) tree_ptr = tree(from, /*reverse=*/false);
    const double snap_b = euclidean_distance(targets[i], network_.node_position(to));
    out[i] = snap_a + (*tree_ptr)[static_cast<std::size_t>(to)] + snap_b;
  }
}

void NetworkOracle::distances_to_into(std::span<const Point> sources, const Point& target,
                                      double* out) const {
  if (sources.empty()) return;
  const NodeId to = snaps_.snap(target);
  const double snap_b = euclidean_distance(target, network_.node_position(to));
  Tree tree_ptr;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const NodeId from = snaps_.snap(sources[i]);
    if (from == to) {
      out[i] = euclidean_distance(sources[i], target);
      continue;
    }
    if (!tree_ptr) tree_ptr = tree(to, /*reverse=*/true);
    const double snap_a = euclidean_distance(sources[i], network_.node_position(from));
    out[i] = snap_a + (*tree_ptr)[static_cast<std::size_t>(from)] + snap_b;
  }
}

void NetworkOracle::prepare_frame(std::span<const Point> points) const {
  snaps_.prepare_frame(points);
}

}  // namespace o2o::geo
