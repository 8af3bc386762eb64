// Road networks, point clouds and a concurrent query runner shared by
// the oracle, routing and packing suites.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "geo/road_network.h"
#include "util/rng.h"

namespace o2o::geo::fixtures {

/// Grid city with *integer* edge lengths: every edge weight drawn from
/// {1..5} km. Integer weights sum exactly in doubles, so every summation
/// order of a path gives the same bits.
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

/// Every answer one query stream gets from `oracle`: for each point,
/// starting at index `first`, its distances_from row, its distances_to
/// row and one pointwise distance to the next point. The values depend
/// only on the graph, so every oracle over it must return this stream bit
/// for bit, whatever its cache held.
inline std::vector<double> query_stream(const DistanceOracle& oracle,
                                        std::span<const Point> points, std::size_t first) {
  const std::size_t n = points.size();
  std::vector<double> answers;
  answers.reserve(n * (2 * n + 1));
  std::vector<double> row(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (first + k) % n;
    oracle.distances_from_into(points[i], points, row.data());
    answers.insert(answers.end(), row.begin(), row.end());
    oracle.distances_to_into(points, points[i], row.data());
    answers.insert(answers.end(), row.begin(), row.end());
    answers.push_back(oracle.distance(points[i], points[(i + 1) % n]));
  }
  return answers;
}

/// Runs `rounds` query streams on each of `threads` raw std::threads at
/// once; thread t starts every stream at point t. Result [t][r] is
/// thread t's round r.
inline std::vector<std::vector<std::vector<double>>> hammer(const DistanceOracle& oracle,
                                                            std::span<const Point> points,
                                                            int threads, int rounds) {
  std::vector<std::vector<std::vector<double>>> answers(static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto& mine = answers[static_cast<std::size_t>(t)];
      for (int r = 0; r < rounds; ++r) {
        mine.push_back(query_stream(oracle, points, static_cast<std::size_t>(t)));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return answers;
}

}  // namespace o2o::geo::fixtures
