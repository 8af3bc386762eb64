// Road networks and point clouds shared by the oracle, routing and
// packing suites.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/road_network.h"
#include "util/rng.h"

namespace o2o::geo::fixtures {

/// Grid city with *integer* edge lengths: every edge weight drawn from
/// {1..5} km. Integer weights sum exactly in doubles, which is what the
/// bitwise CHOracle == NetworkOracle assertions rely on.
inline RoadNetwork integer_grid(int cols, int rows, std::uint64_t seed) {
  Rng rng(seed);
  RoadNetwork network;
  const auto node_at = [cols](int x, int y) { return static_cast<NodeId>(y * cols + x); };
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      network.add_node(Point{static_cast<double>(x), static_cast<double>(y)});
    }
  }
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      if (x + 1 < cols) {
        network.add_bidirectional_edge(node_at(x, y), node_at(x + 1, y),
                                       static_cast<double>(rng.uniform_int(1, 5)));
      }
      if (y + 1 < rows) {
        network.add_bidirectional_edge(node_at(x, y), node_at(x, y + 1),
                                       static_cast<double>(rng.uniform_int(1, 5)));
      }
    }
  }
  return network;
}

inline std::vector<Point> random_points(std::size_t count, std::uint64_t seed,
                                        double extent) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(Point{rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
  }
  return points;
}

}  // namespace o2o::geo::fixtures
