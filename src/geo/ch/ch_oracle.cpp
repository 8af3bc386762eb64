#include "geo/ch/ch_oracle.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/contracts.h"

namespace o2o::geo {

namespace {

std::size_t space_cache_capacity(const RoadNetwork& network, std::size_t requested) {
  if (requested != CHOracle::kAutoCapacity) return requested;
  return std::max<std::size_t>(1024, 2 * network.node_count() + 64);
}

}  // namespace

CHOracle::CHOracle(const RoadNetwork& network, ContractionHierarchy ch,
                   std::size_t cache_capacity, std::size_t shard_count)
    : network_(network),
      ch_(std::move(ch)),
      spaces_(space_cache_capacity(network, cache_capacity), shard_count),
      snaps_(network, spaces_.shard_count()) {
  O2O_EXPECTS(network.node_count() > 0);
  O2O_EXPECTS(ch_.node_count() == network.node_count());
  O2O_EXPECTS(ch_.graph_fingerprint() == network.fingerprint());
}

CHOracle::CHOracle(const RoadNetwork& network, ContractionHierarchy::BuildOptions options,
                   std::size_t cache_capacity, std::size_t shard_count)
    : CHOracle(network, ContractionHierarchy::build(network, options), cache_capacity,
               shard_count) {}

CHOracle::Space CHOracle::space(NodeId node, bool backward) const {
  // A miss runs the upward search outside the shard lock.
  return spaces_.get_or_build(space_key(node, backward),
                              [&] { return ch_.search_space(node, backward); });
}

double CHOracle::join(const ContractionHierarchy::SearchSpace& forward,
                      const ContractionHierarchy::SearchSpace& backward) {
  // Merge join over the id-sorted spaces; the min over meeting nodes is
  // order-independent, so the value matches query() exactly.
  double best = kInfiniteDistance;
  auto f = forward.begin();
  auto b = backward.begin();
  while (f != forward.end() && b != backward.end()) {
    if (f->node < b->node) {
      ++f;
    } else if (b->node < f->node) {
      ++b;
    } else {
      const double through = f->distance + b->distance;
      if (through < best) best = through;
      ++f;
      ++b;
    }
  }
  return best;
}

double CHOracle::distance(const Point& a, const Point& b) const {
  const NodeId from = snaps_.snap(a);
  const NodeId to = snaps_.snap(b);
  const double snap_a = euclidean_distance(a, network_.node_position(from));
  const double snap_b = euclidean_distance(b, network_.node_position(to));
  if (from == to) return euclidean_distance(a, b);
  const double network_leg = join(*space(from, /*backward=*/false),
                                  *space(to, /*backward=*/true));
  return snap_a + network_leg + snap_b;
}

std::vector<double> CHOracle::distances_from(const Point& source,
                                             std::span<const Point> targets) const {
  std::vector<double> result(targets.size());
  distances_from_into(source, targets, result.data());
  return result;
}

std::vector<double> CHOracle::distances_to(std::span<const Point> sources,
                                           const Point& target) const {
  std::vector<double> result(sources.size());
  distances_to_into(sources, target, result.data());
  return result;
}

void CHOracle::distances_from_into(const Point& source, std::span<const Point> targets,
                                   double* out) const {
  if (targets.empty()) return;
  const NodeId from = snaps_.snap(source);
  const double snap_a = euclidean_distance(source, network_.node_position(from));
  // Bucket step, built on first use: an all-same-node batch needs no
  // index. Each target then joins its backward space by probing.
  std::unordered_map<NodeId, double> bucket;
  bool bucket_ready = false;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const NodeId to = snaps_.snap(targets[i]);
    if (from == to) {
      out[i] = euclidean_distance(source, targets[i]);
      continue;
    }
    if (!bucket_ready) {
      const Space fwd = space(from, /*backward=*/false);
      bucket.reserve(fwd->size() * 2);
      for (const auto& entry : *fwd) bucket.emplace(entry.node, entry.distance);
      bucket_ready = true;
    }
    const Space bwd = space(to, /*backward=*/true);
    double leg = kInfiniteDistance;
    for (const auto& entry : *bwd) {
      const auto it = bucket.find(entry.node);
      if (it == bucket.end()) continue;
      const double through = it->second + entry.distance;
      if (through < leg) leg = through;
    }
    const double snap_b = euclidean_distance(targets[i], network_.node_position(to));
    out[i] = snap_a + leg + snap_b;
  }
}

void CHOracle::distances_to_into(std::span<const Point> sources, const Point& target,
                                 double* out) const {
  if (sources.empty()) return;
  const NodeId to = snaps_.snap(target);
  const double snap_b = euclidean_distance(target, network_.node_position(to));
  std::unordered_map<NodeId, double> bucket;
  bool bucket_ready = false;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const NodeId from = snaps_.snap(sources[i]);
    if (from == to) {
      out[i] = euclidean_distance(sources[i], target);
      continue;
    }
    if (!bucket_ready) {
      const Space bwd = space(to, /*backward=*/true);
      bucket.reserve(bwd->size() * 2);
      for (const auto& entry : *bwd) bucket.emplace(entry.node, entry.distance);
      bucket_ready = true;
    }
    const Space fwd = space(from, /*backward=*/false);
    double leg = kInfiniteDistance;
    for (const auto& entry : *fwd) {
      const auto it = bucket.find(entry.node);
      if (it == bucket.end()) continue;
      const double through = entry.distance + it->second;
      if (through < leg) leg = through;
    }
    const double snap_a = euclidean_distance(sources[i], network_.node_position(from));
    out[i] = snap_a + leg + snap_b;
  }
}

void CHOracle::prepare_frame(std::span<const Point> points) const {
  // Unlike NetworkOracle (whose trees are too big to warm eagerly),
  // spaces are tiny: warm both directions now so the frame's first
  // query against this point is pure cache hits.
  snaps_.prepare_frame(points, [this](NodeId node) {
    (void)space(node, /*backward=*/false);
    (void)space(node, /*backward=*/true);
  });
}

}  // namespace o2o::geo
