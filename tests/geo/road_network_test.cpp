#include "geo/road_network.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/contracts.h"
#include "util/rng.h"

namespace o2o::geo {
namespace {

/// A 2x2 square city:   2 -- 3
///                      |    |
///                      0 -- 1
RoadNetwork square_city() {
  RoadNetwork network;
  network.add_node({0, 0});
  network.add_node({1, 0});
  network.add_node({0, 1});
  network.add_node({1, 1});
  network.add_bidirectional_edge(0, 1);
  network.add_bidirectional_edge(0, 2);
  network.add_bidirectional_edge(1, 3);
  network.add_bidirectional_edge(2, 3);
  return network;
}

TEST(RoadNetwork, CountsNodesAndEdges) {
  const RoadNetwork network = square_city();
  EXPECT_EQ(network.node_count(), 4u);
  EXPECT_EQ(network.edge_count(), 8u);  // 4 streets, both directions
}

TEST(RoadNetwork, DefaultEdgeLengthIsEuclidean) {
  RoadNetwork network;
  network.add_node({0, 0});
  network.add_node({3, 4});
  network.add_edge(0, 1);
  EXPECT_DOUBLE_EQ(network.edges_from(0)[0].length_km, 5.0);
}

TEST(RoadNetwork, ExplicitEdgeLengthIsKept) {
  RoadNetwork network;
  network.add_node({0, 0});
  network.add_node({1, 0});
  network.add_edge(0, 1, 2.5);
  EXPECT_DOUBLE_EQ(network.edges_from(0)[0].length_km, 2.5);
}

TEST(RoadNetwork, DijkstraOnTheSquare) {
  const RoadNetwork network = square_city();
  const auto dist = network.shortest_paths_from(0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 1.0);
  EXPECT_DOUBLE_EQ(dist[3], 2.0);  // around the corner
}

TEST(RoadNetwork, UnreachableNodeIsInfinity) {
  RoadNetwork network;
  network.add_node({0, 0});
  network.add_node({5, 5});
  EXPECT_EQ(network.shortest_path(0, 1), kInfiniteDistance);
}

TEST(RoadNetwork, OneWayEdgesAreDirected) {
  RoadNetwork network;
  network.add_node({0, 0});
  network.add_node({1, 0});
  network.add_edge(0, 1);
  EXPECT_DOUBLE_EQ(network.shortest_path(0, 1), 1.0);
  EXPECT_EQ(network.shortest_path(1, 0), kInfiniteDistance);
}

TEST(RoadNetwork, ShortestPathNodesTracesAValidPath) {
  const RoadNetwork network = square_city();
  const auto path = network.shortest_path_nodes(0, 3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 3);
  // Consecutive nodes must be connected.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    bool connected = false;
    for (const auto& edge : network.edges_from(path[i])) {
      connected |= (edge.to == path[i + 1]);
    }
    EXPECT_TRUE(connected);
  }
}

TEST(RoadNetwork, ShortestPathNodesEmptyWhenUnreachable) {
  RoadNetwork network;
  network.add_node({0, 0});
  network.add_node({9, 9});
  EXPECT_TRUE(network.shortest_path_nodes(0, 1).empty());
}

TEST(RoadNetwork, NearestNodeMatchesLinearScan) {
  RoadNetwork network = RoadNetwork::make_grid_city(8, 6, 1.0, 0.2, 0.0, 3);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const Point p{rng.uniform(-1.0, 8.0), rng.uniform(-1.0, 6.0)};
    const NodeId fast = network.nearest_node(p);
    NodeId slow = 0;
    double best = squared_distance(p, network.node_position(0));
    for (NodeId id = 1; id < static_cast<NodeId>(network.node_count()); ++id) {
      const double d = squared_distance(p, network.node_position(id));
      if (d < best) {
        best = d;
        slow = id;
      }
    }
    EXPECT_DOUBLE_EQ(squared_distance(p, network.node_position(fast)), best) << "point " << i;
    (void)slow;
  }
}

TEST(GridCity, HasExpectedShape) {
  const RoadNetwork city = RoadNetwork::make_grid_city(5, 4, 0.5);
  EXPECT_EQ(city.node_count(), 20u);
  // Full grid: 4*4 horizontal + 5*3 vertical streets, two directions each.
  EXPECT_EQ(city.edge_count(), 2u * (4 * 4 + 5 * 3));
}

TEST(GridCity, StaysConnectedUnderClosures) {
  const RoadNetwork city = RoadNetwork::make_grid_city(6, 6, 1.0, 0.0, 0.4, 11);
  const auto dist = city.shortest_paths_from(0);
  for (double d : dist) EXPECT_LT(d, kInfiniteDistance);
}

TEST(GridCity, JitterKeepsNodesNearLattice) {
  const RoadNetwork city = RoadNetwork::make_grid_city(4, 4, 2.0, 0.3, 0.0, 5);
  for (NodeId id = 0; id < static_cast<NodeId>(city.node_count()); ++id) {
    const Point p = city.node_position(id);
    const double lattice_x = 2.0 * (id % 4);
    const double lattice_y = 2.0 * (id / 4);
    EXPECT_LE(std::abs(p.x - lattice_x), 0.3 + 1e-12);
    EXPECT_LE(std::abs(p.y - lattice_y), 0.3 + 1e-12);
  }
}

TEST(NetworkOracle, GridDistanceIsRectilinear) {
  const RoadNetwork city = RoadNetwork::make_grid_city(10, 10, 1.0);
  const NetworkOracle oracle(city);
  // Node-aligned queries: the shortest path follows the grid.
  EXPECT_NEAR(oracle.distance({0, 0}, {3, 4}), 7.0, 1e-9);
  EXPECT_NEAR(oracle.distance({2, 2}, {2, 2}), 0.0, 1e-9);
}

TEST(NetworkOracle, AtLeastEuclidean) {
  const RoadNetwork city = RoadNetwork::make_grid_city(10, 10, 1.0, 0.0, 0.2, 7);
  const NetworkOracle oracle(city);
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    const Point a{rng.uniform(0, 9), rng.uniform(0, 9)};
    const Point b{rng.uniform(0, 9), rng.uniform(0, 9)};
    EXPECT_GE(oracle.distance(a, b) + 1e-9, euclidean_distance(a, b));
  }
}

TEST(NetworkOracle, SymmetricOnBidirectionalStreets) {
  const RoadNetwork city = RoadNetwork::make_grid_city(6, 6, 1.0, 0.1, 0.0, 9);
  const NetworkOracle oracle(city);
  Rng rng(29);
  for (int i = 0; i < 50; ++i) {
    const Point a{rng.uniform(0, 5), rng.uniform(0, 5)};
    const Point b{rng.uniform(0, 5), rng.uniform(0, 5)};
    EXPECT_NEAR(oracle.distance(a, b), oracle.distance(b, a), 1e-9);
  }
}

TEST(NetworkOracle, CacheIsBounded) {
  const RoadNetwork city = RoadNetwork::make_grid_city(12, 12, 1.0);
  const NetworkOracle oracle(city, /*cache_capacity=*/16);
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    const Point a{rng.uniform(0, 11), rng.uniform(0, 11)};
    const Point b{rng.uniform(0, 11), rng.uniform(0, 11)};
    (void)oracle.distance(a, b);
  }
  EXPECT_LE(oracle.cache_size(), 16u);
}

TEST(NetworkOracle, EvictsLeastRecentlyUsedTree) {
  // Single shard with room for two trees so the eviction order is fully
  // observable: a touched entry must survive, the stale one must go.
  const RoadNetwork city = RoadNetwork::make_grid_city(4, 4, 1.0);
  const NetworkOracle oracle(city, /*cache_capacity=*/2, /*shard_count=*/1);
  ASSERT_EQ(oracle.cache_capacity(), 2u);
  const Point far{3, 3};  // node 15, distinct from every source below

  (void)oracle.distance({0, 0}, far);  // tree at node 0
  (void)oracle.distance({1, 0}, far);  // tree at node 1
  EXPECT_TRUE(oracle.tree_cached(0));
  EXPECT_TRUE(oracle.tree_cached(1));
  EXPECT_EQ(oracle.cache_size(), 2u);

  (void)oracle.distance({0, 0}, far);  // touch node 0: now MRU
  (void)oracle.distance({2, 0}, far);  // tree at node 2 evicts the LRU
  EXPECT_TRUE(oracle.tree_cached(0)) << "touched tree must survive";
  EXPECT_FALSE(oracle.tree_cached(1)) << "least recently used tree must be evicted";
  EXPECT_TRUE(oracle.tree_cached(2));
  EXPECT_EQ(oracle.cache_size(), 2u);
}

TEST(NetworkOracle, CapacityNeverExceededAcrossShards) {
  const RoadNetwork city = RoadNetwork::make_grid_city(12, 12, 1.0);
  // Capacity not divisible by the shard count: rounding must floor, never
  // exceed the requested bound.
  const NetworkOracle oracle(city, /*cache_capacity=*/10, /*shard_count=*/4);
  EXPECT_LE(oracle.cache_capacity(), 10u);
  Rng rng(37);
  for (int i = 0; i < 400; ++i) {
    const Point a{rng.uniform(0, 11), rng.uniform(0, 11)};
    const Point b{rng.uniform(0, 11), rng.uniform(0, 11)};
    (void)oracle.distance(a, b);
    EXPECT_LE(oracle.cache_size(), 10u);
  }
}

TEST(RoadNetwork, NearestNodeWorksWithoutExplicitSnapIndex) {
  // The snap index must build itself lazily: never call build_snap_index.
  RoadNetwork network;
  network.add_node({0, 0});
  network.add_node({2, 0});
  network.add_node({0, 2});
  network.add_node({5, 5});
  EXPECT_EQ(network.nearest_node({0.2, 0.1}), 0);
  EXPECT_EQ(network.nearest_node({1.8, 0.3}), 1);
  EXPECT_EQ(network.nearest_node({4.0, 4.5}), 3);
  // Adding a node invalidates the lazily built index; the next snap must
  // see the newcomer.
  const NodeId added = network.add_node({10, 10});
  EXPECT_EQ(network.nearest_node({9.5, 9.5}), added);
}

TEST(RoadNetwork, SnapManyMatchesNearestNode) {
  const RoadNetwork city = RoadNetwork::make_grid_city(7, 5, 1.0, 0.2, 0.0, 13);
  Rng rng(41);
  std::vector<Point> points;
  for (int i = 0; i < 64; ++i) {
    points.push_back({rng.uniform(-1.0, 7.0), rng.uniform(-1.0, 5.0)});
  }
  const std::vector<NodeId> snapped = city.snap_many(points);
  ASSERT_EQ(snapped.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(snapped[i], city.nearest_node(points[i])) << "point " << i;
  }
  EXPECT_TRUE(city.snap_many({}).empty());
}

TEST(RoadNetwork, ShortestPathsToMatchesForwardTransposed) {
  // Directed city with closures: entry v of shortest_paths_to(t) must be
  // the forward distance v -> t.
  const RoadNetwork city = RoadNetwork::make_grid_city(6, 6, 1.0, 0.25, 0.2, 19);
  for (const NodeId target : {0, 7, 21, 35}) {
    const std::vector<double> to_target = city.shortest_paths_to(target);
    for (NodeId v = 0; v < static_cast<NodeId>(city.node_count()); ++v) {
      const double forward =
          city.shortest_paths_from(v)[static_cast<std::size_t>(target)];
      EXPECT_NEAR(to_target[static_cast<std::size_t>(v)], forward, 1e-9)
          << "v=" << v << " target=" << target;
    }
  }
}

TEST(RoadNetwork, ShortestPathsToRespectsOneWayStreets) {
  RoadNetwork network;
  network.add_node({0, 0});
  network.add_node({1, 0});
  network.add_node({2, 0});
  network.add_edge(0, 1);
  network.add_edge(1, 2);
  network.add_edge(2, 0, 5.0);
  const std::vector<double> to_two = network.shortest_paths_to(2);
  EXPECT_DOUBLE_EQ(to_two[0], 2.0);
  EXPECT_DOUBLE_EQ(to_two[1], 1.0);
  EXPECT_DOUBLE_EQ(to_two[2], 0.0);
  const std::vector<double> to_zero = network.shortest_paths_to(0);
  EXPECT_DOUBLE_EQ(to_zero[2], 5.0);
  EXPECT_DOUBLE_EQ(to_zero[1], 6.0);  // 1 -> 2 -> 0
}

TEST(RoadNetwork, BidirectionalShortestPathMatchesFullDijkstra) {
  const RoadNetwork city = RoadNetwork::make_grid_city(9, 9, 1.0, 0.3, 0.25, 23);
  Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, 80));
    const auto t = static_cast<NodeId>(rng.uniform_int(0, 80));
    const double full = city.shortest_paths_from(s)[static_cast<std::size_t>(t)];
    EXPECT_NEAR(city.shortest_path(s, t), full, 1e-9) << s << " -> " << t;
  }
}

TEST(RoadNetwork, BidirectionalShortestPathHandlesOneWayAndUnreachable) {
  RoadNetwork network;
  network.add_node({0, 0});
  network.add_node({1, 0});
  network.add_node({2, 0});
  network.add_node({9, 9});  // isolated
  network.add_edge(0, 1);
  network.add_edge(1, 2);
  EXPECT_DOUBLE_EQ(network.shortest_path(0, 2), 2.0);
  EXPECT_EQ(network.shortest_path(2, 0), kInfiniteDistance);
  EXPECT_EQ(network.shortest_path(0, 3), kInfiniteDistance);
  EXPECT_EQ(network.shortest_path(3, 0), kInfiniteDistance);
  EXPECT_DOUBLE_EQ(network.shortest_path(1, 1), 0.0);
}

TEST(RoadNetwork, CopiedNetworkAnswersTheSameQueries) {
  const RoadNetwork city = RoadNetwork::make_grid_city(5, 5, 1.0, 0.2, 0.1, 29);
  const RoadNetwork copy = city;  // exercises the custom copy constructor
  EXPECT_EQ(copy.node_count(), city.node_count());
  EXPECT_EQ(copy.edge_count(), city.edge_count());
  Rng rng(47);
  for (int i = 0; i < 50; ++i) {
    const Point p{rng.uniform(0, 4), rng.uniform(0, 4)};
    EXPECT_EQ(copy.nearest_node(p), city.nearest_node(p));
  }
  EXPECT_DOUBLE_EQ(copy.shortest_path(0, 24), city.shortest_path(0, 24));
}

TEST(NetworkOracle, DistancesFromMatchesPointwiseExactly) {
  const RoadNetwork city = RoadNetwork::make_grid_city(8, 8, 1.0, 0.25, 0.15, 31);
  const NetworkOracle oracle(city);
  Rng rng(53);
  const Point source{rng.uniform(0, 7), rng.uniform(0, 7)};
  std::vector<Point> targets;
  for (int i = 0; i < 100; ++i) {
    targets.push_back({rng.uniform(0, 7), rng.uniform(0, 7)});
  }
  const std::vector<double> bulk = oracle.distances_from(source, targets);
  ASSERT_EQ(bulk.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    // Same forward tree, same snap legs, same addition order: bitwise equal.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bulk[i]),
              std::bit_cast<std::uint64_t>(oracle.distance(source, targets[i])))
        << "target " << i;
  }
}

TEST(NetworkOracle, DistancesToMatchesPointwiseUpToSummationOrder) {
  const RoadNetwork city = RoadNetwork::make_grid_city(8, 8, 1.0, 0.25, 0.15, 31);
  const NetworkOracle oracle(city);
  Rng rng(59);
  const Point target{rng.uniform(0, 7), rng.uniform(0, 7)};
  std::vector<Point> sources;
  for (int i = 0; i < 100; ++i) {
    sources.push_back({rng.uniform(0, 7), rng.uniform(0, 7)});
  }
  const std::vector<double> bulk = oracle.distances_to(sources, target);
  ASSERT_EQ(bulk.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    // Reverse trees accumulate edge lengths in the opposite order, so the
    // values agree up to floating-point summation order.
    EXPECT_NEAR(bulk[i], oracle.distance(sources[i], target), 1e-9) << "source " << i;
  }
}

TEST(NetworkOracle, DistancesToRespectsOneWayDirection) {
  // D(taxi -> pickup) on a one-way street must not be flipped by the
  // reverse-tree bulk path.
  RoadNetwork network;
  network.add_node({0, 0});
  network.add_node({1, 0});
  network.add_node({2, 0});
  network.add_edge(0, 1);
  network.add_edge(1, 2);
  network.add_edge(2, 0, 5.0);
  const NetworkOracle oracle(network);
  const std::vector<Point> sources{{0, 0}, {2, 0}};
  const std::vector<double> bulk =
      oracle.distances_to(std::span<const Point>(sources), {1, 0});
  EXPECT_DOUBLE_EQ(bulk[0], 1.0);  // 0 -> 1 along the one-way
  EXPECT_DOUBLE_EQ(bulk[1], 6.0);  // 2 -> 0 -> 1, not the reverse hop
}

TEST(NetworkOracle, PrepareFrameKeepsAnswersIdentical) {
  const RoadNetwork city = RoadNetwork::make_grid_city(6, 6, 1.0, 0.2, 0.1, 61);
  const NetworkOracle warmed(city);
  const NetworkOracle cold(city);
  Rng rng(67);
  std::vector<Point> frame;
  for (int i = 0; i < 40; ++i) {
    frame.push_back({rng.uniform(0, 5), rng.uniform(0, 5)});
  }
  warmed.prepare_frame(frame);
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    EXPECT_DOUBLE_EQ(warmed.distance(frame[i], frame[i + 1]),
                     cold.distance(frame[i], frame[i + 1]));
  }
}

TEST(NetworkOracle, ConcurrentQueriesMatchSerialAnswers) {
  const RoadNetwork city = RoadNetwork::make_grid_city(10, 10, 1.0, 0.25, 0.2, 71);
  // Small cache so the threads churn evictions while racing.
  const NetworkOracle oracle(city, /*cache_capacity=*/8, /*shard_count=*/4);
  ASSERT_TRUE(oracle.capabilities().concurrent_queries);

  constexpr int kThreads = 4;
  constexpr int kQueries = 200;
  std::vector<std::vector<Point>> points(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    Rng rng(100 + static_cast<std::uint64_t>(w));
    for (int i = 0; i < kQueries + 1; ++i) {
      points[static_cast<std::size_t>(w)].push_back(
          {rng.uniform(0, 9), rng.uniform(0, 9)});
    }
  }

  std::vector<std::vector<double>> parallel(kThreads);
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        const auto& mine = points[static_cast<std::size_t>(w)];
        auto& out = parallel[static_cast<std::size_t>(w)];
        oracle.prepare_frame(mine);
        for (int i = 0; i < kQueries; ++i) {
          out.push_back(oracle.distance(mine[static_cast<std::size_t>(i)],
                                        mine[static_cast<std::size_t>(i) + 1]));
        }
        // Bulk paths race the same shards.
        (void)oracle.distances_from(mine[0], mine);
        (void)oracle.distances_to(mine, mine[0]);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  const NetworkOracle serial(city, /*cache_capacity=*/8, /*shard_count=*/4);
  for (int w = 0; w < kThreads; ++w) {
    const auto& mine = points[static_cast<std::size_t>(w)];
    for (int i = 0; i < kQueries; ++i) {
      EXPECT_DOUBLE_EQ(parallel[static_cast<std::size_t>(w)][static_cast<std::size_t>(i)],
                       serial.distance(mine[static_cast<std::size_t>(i)],
                                       mine[static_cast<std::size_t>(i) + 1]))
          << "worker " << w << " query " << i;
    }
  }
  EXPECT_LE(oracle.cache_size(), oracle.cache_capacity());
}

}  // namespace
}  // namespace o2o::geo
