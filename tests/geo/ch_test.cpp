// Differential suite for the contraction-hierarchy backend: CH query ==
// plain Dijkstra on randomized directed graphs, CHOracle == NetworkOracle
// (bitwise on integer weights, bounded-relative on float weights) across
// every DistanceOracle entry point, serialization round-trips, and
// concurrent queries after prepare_frame (the TSan job runs this file).
#include "geo/ch/ch_oracle.h"
#include "geo/ch/contraction_hierarchy.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "geo/road_network.h"
#include "tests/geo/test_networks.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace o2o::geo {
namespace {

/// Random directed graph: n random points, a random out-tree for some
/// connectivity, plus `extra` random one-way edges. Weights default to
/// the Euclidean gap (float weights) unless `integer_weights`.
RoadNetwork random_digraph(std::size_t n, std::size_t extra, std::uint64_t seed,
                           bool integer_weights = false) {
  Rng rng(seed);
  RoadNetwork network;
  for (std::size_t i = 0; i < n; ++i) {
    network.add_node(Point{rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)});
  }
  const auto weight = [&](NodeId, NodeId) {
    return integer_weights ? static_cast<double>(rng.uniform_int(1, 9)) : -1.0;
  };
  for (std::size_t i = 1; i < n; ++i) {
    const NodeId parent = static_cast<NodeId>(rng.uniform_index(i));
    network.add_edge(parent, static_cast<NodeId>(i), weight(parent, static_cast<NodeId>(i)));
  }
  for (std::size_t e = 0; e < extra; ++e) {
    const NodeId from = static_cast<NodeId>(rng.uniform_index(n));
    const NodeId to = static_cast<NodeId>(rng.uniform_index(n));
    if (from == to) continue;
    network.add_edge(from, to, weight(from, to));
  }
  return network;
}

using fixtures::integer_grid;
using fixtures::random_points;

// --- ContractionHierarchy core --------------------------------------------

TEST(ContractionHierarchy, MatchesDijkstraOnRandomDirectedGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RoadNetwork network = random_digraph(120, 360, seed);
    const ContractionHierarchy ch = ContractionHierarchy::build(network);
    Rng rng(seed * 97);
    for (int trial = 0; trial < 60; ++trial) {
      const NodeId s = static_cast<NodeId>(rng.uniform_index(network.node_count()));
      const NodeId t = static_cast<NodeId>(rng.uniform_index(network.node_count()));
      const double expected = network.shortest_path(s, t);
      const double actual = ch.query(s, t);
      if (std::isinf(expected)) {
        EXPECT_TRUE(std::isinf(actual)) << "seed " << seed << " pair " << s << "->" << t;
      } else {
        // Shortcuts re-associate the sum along the path: bounded-relative,
        // not bitwise, on float weights.
        EXPECT_NEAR(actual, expected, 1e-9 * std::max(1.0, expected))
            << "seed " << seed << " pair " << s << "->" << t;
      }
    }
  }
}

TEST(ContractionHierarchy, ExactOnIntegerWeights) {
  const RoadNetwork network = random_digraph(100, 300, 11, /*integer_weights=*/true);
  const ContractionHierarchy ch = ContractionHierarchy::build(network);
  Rng rng(7);
  for (int trial = 0; trial < 80; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.uniform_index(network.node_count()));
    const NodeId t = static_cast<NodeId>(rng.uniform_index(network.node_count()));
    // Integer sums are exact in doubles: bitwise equality.
    EXPECT_EQ(ch.query(s, t), network.shortest_path(s, t)) << s << "->" << t;
  }
}

TEST(ContractionHierarchy, HandlesParallelEdgesAndSelfLoops) {
  RoadNetwork network;
  network.add_node({0, 0});
  network.add_node({1, 0});
  network.add_node({2, 0});
  network.add_edge(0, 0, 5.0);  // self-loop: never useful
  network.add_edge(0, 1, 3.0);
  network.add_edge(0, 1, 1.0);  // parallel, better
  network.add_edge(1, 2, 2.0);
  network.add_edge(0, 2, 9.0);  // dominated direct edge
  const ContractionHierarchy ch = ContractionHierarchy::build(network);
  EXPECT_DOUBLE_EQ(ch.query(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(ch.query(0, 2), 3.0);
  EXPECT_EQ(ch.query(2, 0), kInfiniteDistance);
  EXPECT_DOUBLE_EQ(ch.query(1, 1), 0.0);
}

TEST(ContractionHierarchy, TightWitnessLimitStaysExact) {
  // An exhausted witness search inserts the shortcut conservatively, so
  // even settle-limit 1 must keep every query exact (just more
  // shortcuts). Integer weights so the two hierarchies compare bitwise.
  const RoadNetwork network = random_digraph(80, 240, 3, /*integer_weights=*/true);
  const ContractionHierarchy loose = ContractionHierarchy::build(network);
  ContractionHierarchy::BuildOptions tight;
  tight.witness_settle_limit = 1;
  const ContractionHierarchy strict = ContractionHierarchy::build(network, tight);
  EXPECT_GE(strict.shortcut_count(), loose.shortcut_count());
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.uniform_index(network.node_count()));
    const NodeId t = static_cast<NodeId>(rng.uniform_index(network.node_count()));
    EXPECT_EQ(strict.query(s, t), loose.query(s, t));
  }
}

TEST(ContractionHierarchy, SearchSpacesAreSortedAndRootedAtZero) {
  const RoadNetwork network = random_digraph(60, 180, 9);
  const ContractionHierarchy ch = ContractionHierarchy::build(network);
  for (NodeId node : {NodeId{0}, NodeId{17}, NodeId{59}}) {
    for (const bool backward : {false, true}) {
      const auto space = ch.search_space(node, backward);
      ASSERT_FALSE(space.empty());
      bool found_root = false;
      for (std::size_t i = 0; i < space.size(); ++i) {
        if (i > 0) EXPECT_LT(space[i - 1].node, space[i].node);
        if (space[i].node == node) {
          EXPECT_DOUBLE_EQ(space[i].distance, 0.0);
          found_root = true;
        }
      }
      EXPECT_TRUE(found_root);
    }
  }
}

TEST(ContractionHierarchy, RanksAreAPermutation) {
  const RoadNetwork network = random_digraph(50, 150, 21);
  const ContractionHierarchy ch = ContractionHierarchy::build(network);
  std::vector<bool> seen(network.node_count(), false);
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    const std::uint32_t rank = ch.rank(static_cast<NodeId>(i));
    ASSERT_LT(rank, network.node_count());
    EXPECT_FALSE(seen[rank]);
    seen[rank] = true;
  }
}

// --- serialization --------------------------------------------------------

TEST(ContractionHierarchy, SerializationRoundTripsExactly) {
  const RoadNetwork network = random_digraph(70, 210, 13);
  const ContractionHierarchy built = ContractionHierarchy::build(network);
  std::stringstream stream;
  built.save(stream);
  const ContractionHierarchy loaded =
      ContractionHierarchy::load(stream, network.fingerprint());
  EXPECT_EQ(loaded.node_count(), built.node_count());
  EXPECT_EQ(loaded.upward_edge_count(), built.upward_edge_count());
  EXPECT_EQ(loaded.shortcut_count(), built.shortcut_count());
  EXPECT_EQ(loaded.graph_fingerprint(), built.graph_fingerprint());
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.uniform_index(network.node_count()));
    const NodeId t = static_cast<NodeId>(rng.uniform_index(network.node_count()));
    EXPECT_EQ(loaded.query(s, t), built.query(s, t));
  }
}

TEST(ContractionHierarchy, LoadRejectsFingerprintMismatch) {
  const RoadNetwork network = random_digraph(30, 90, 17);
  const ContractionHierarchy built = ContractionHierarchy::build(network);
  std::stringstream stream;
  built.save(stream);
  EXPECT_THROW(ContractionHierarchy::load(stream, network.fingerprint() + 1),
               ContractViolation);
}

TEST(ContractionHierarchy, LoadRejectsTruncatedStream) {
  const RoadNetwork network = random_digraph(30, 90, 19);
  const ContractionHierarchy built = ContractionHierarchy::build(network);
  std::stringstream stream;
  built.save(stream);
  const std::string bytes = stream.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(ContractionHierarchy::load(truncated), ContractViolation);
}

TEST(ContractionHierarchy, LoadRejectsGarbage) {
  std::stringstream garbage("not a hierarchy artifact");
  EXPECT_THROW(ContractionHierarchy::load(garbage), ContractViolation);
}

// --- CHOracle vs NetworkOracle --------------------------------------------

TEST(CHOracle, BitwiseEqualToNetworkOracleOnIntegerWeights) {
  const RoadNetwork network = integer_grid(12, 12, 23);
  const NetworkOracle reference(network);
  const CHOracle oracle(network, ContractionHierarchy::build(network));
  const std::vector<Point> points = random_points(40, 29, 11.0);
  for (const Point& a : points) {
    for (const Point& b : points) {
      // Same snap, same `snap_a + leg + snap_b` expression order, integer
      // network leg: the doubles must match bit for bit.
      EXPECT_EQ(oracle.distance(a, b), reference.distance(a, b));
    }
  }
}

TEST(CHOracle, BulkRowsMatchNetworkOracleBitwise) {
  const RoadNetwork network = integer_grid(10, 10, 31);
  const NetworkOracle reference(network);
  const CHOracle oracle(network, ContractionHierarchy::build(network));
  const std::vector<Point> points = random_points(60, 37, 9.0);
  const Point pivot{4.5, 4.5};

  const auto from_ch = oracle.distances_from(pivot, points);
  const auto from_ref = reference.distances_from(pivot, points);
  const auto to_ch = oracle.distances_to(points, pivot);
  const auto to_ref = reference.distances_to(points, pivot);
  std::vector<double> from_into(points.size());
  std::vector<double> to_into(points.size());
  oracle.distances_from_into(pivot, points, from_into.data());
  oracle.distances_to_into(points, pivot, to_into.data());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(from_ch[i], from_ref[i]) << i;
    EXPECT_EQ(to_ch[i], to_ref[i]) << i;
    EXPECT_EQ(from_into[i], from_ch[i]) << i;
    EXPECT_EQ(to_into[i], to_ch[i]) << i;
    // Rows must also equal the pairwise calls byte for byte.
    EXPECT_EQ(from_ch[i], oracle.distance(pivot, points[i])) << i;
    EXPECT_EQ(to_ch[i], oracle.distance(points[i], pivot)) << i;
  }
}

TEST(CHOracle, CloseToNetworkOracleOnFloatWeights) {
  const RoadNetwork network =
      RoadNetwork::make_grid_city(9, 9, 1.0, /*jitter_km=*/0.3, /*closure_fraction=*/0.15,
                                  /*seed=*/41);
  const NetworkOracle reference(network);
  const CHOracle oracle(network, ContractionHierarchy::build(network));
  const std::vector<Point> points = random_points(30, 43, 8.0);
  for (const Point& a : points) {
    for (const Point& b : points) {
      const double expected = reference.distance(a, b);
      EXPECT_NEAR(oracle.distance(a, b), expected, 1e-9 * std::max(1.0, expected));
    }
  }
}

TEST(CHOracle, RespectsOneWayStreets) {
  RoadNetwork network;
  network.add_node({0, 0});
  network.add_node({5, 0});
  network.add_edge(0, 1, 5.0);       // eastbound only
  network.add_edge(1, 0, 12.0);      // long way back
  const NetworkOracle reference(network);
  const CHOracle oracle(network, ContractionHierarchy::build(network));
  const Point a{0.1, 0.0};
  const Point b{4.9, 0.0};
  EXPECT_EQ(oracle.distance(a, b), reference.distance(a, b));
  EXPECT_EQ(oracle.distance(b, a), reference.distance(b, a));
  EXPECT_NE(oracle.distance(a, b), oracle.distance(b, a));
  EXPECT_FALSE(oracle.capabilities().symmetric_distances);
  EXPECT_TRUE(oracle.capabilities().concurrent_queries);
}

TEST(CHOracle, RejectsHierarchyFromDifferentGraph) {
  const RoadNetwork a = integer_grid(5, 5, 1);
  const RoadNetwork b = integer_grid(5, 5, 2);
  ContractionHierarchy ch = ContractionHierarchy::build(a);
  EXPECT_THROW(CHOracle(b, std::move(ch)), ContractViolation);
}

TEST(CHOracle, PrepareFrameWarmsSpacesAndCarriesDeltas) {
  const RoadNetwork network = integer_grid(8, 8, 3);
  const CHOracle oracle(network, ContractionHierarchy::build(network));
  const std::vector<Point> frame = random_points(24, 5, 7.0);
  oracle.prepare_frame(frame);
  EXPECT_EQ(oracle.last_prepare_carried(), 0u);
  // Every frame point's snapped node has both spaces resident.
  for (const Point& p : frame) {
    const NodeId node = network.nearest_node(p);
    EXPECT_TRUE(oracle.space_cached(node, /*backward=*/false));
    EXPECT_TRUE(oracle.space_cached(node, /*backward=*/true));
  }
  // Identical frame: everything carries, nothing re-warms.
  oracle.prepare_frame(frame);
  EXPECT_EQ(oracle.last_prepare_carried(), frame.size());
  // Half-churned frame: exactly the surviving half carries.
  std::vector<Point> churned(frame.begin(), frame.begin() + 12);
  const std::vector<Point> fresh = random_points(12, 59, 7.0);
  churned.insert(churned.end(), fresh.begin(), fresh.end());
  oracle.prepare_frame(churned);
  EXPECT_EQ(oracle.last_prepare_carried(), 12u);
}

TEST(CHOracle, ConcurrentQueriesAgreeWithSerial) {
  const RoadNetwork network = integer_grid(10, 10, 47);
  const NetworkOracle reference(network);
  const CHOracle oracle(network, ContractionHierarchy::build(network));
  const std::vector<Point> points = random_points(64, 53, 9.0);
  oracle.prepare_frame(points);

  std::vector<double> expected(points.size() * points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      expected[i * points.size() + j] = reference.distance(points[i], points[j]);
    }
  }

  constexpr int kThreads = 8;
  std::vector<double> actual(points.size() * points.size());
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int worker = 0; worker < kThreads; ++worker) {
    workers.emplace_back([&, worker] {
      for (std::size_t i = static_cast<std::size_t>(worker); i < points.size();
           i += kThreads) {
        oracle.distances_from_into(
            points[i], points, actual.data() + i * points.size());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (std::size_t k = 0; k < actual.size(); ++k) {
    EXPECT_EQ(actual[k], expected[k]) << k;
  }
}

TEST(CHOracle, LruEvictionKeepsAnswersCorrect) {
  const RoadNetwork network = integer_grid(8, 8, 61);
  const NetworkOracle reference(network);
  // Capacity far below the working set: every query churns the cache.
  const CHOracle oracle(network, ContractionHierarchy::build(network),
                        /*cache_capacity=*/4, /*shard_count=*/2);
  EXPECT_EQ(oracle.cache_capacity(), 4u);
  const std::vector<Point> points = random_points(40, 67, 7.0);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_EQ(oracle.distance(points[i - 1], points[i]),
              reference.distance(points[i - 1], points[i]));
  }
  EXPECT_LE(oracle.cache_size(), oracle.cache_capacity());
}

TEST(CHOracle, EvictsUnreferencedSpaceFirst) {
  // Mirrors NetworkOracle.EvictsLeastRecentlyUsedTree. One shard with room
  // for three spaces; every query below also hits far's backward space.
  const RoadNetwork city = RoadNetwork::make_grid_city(4, 4, 1.0);
  const CHOracle oracle(city, ContractionHierarchy::build(city), /*cache_capacity=*/3,
                        /*shard_count=*/1);
  ASSERT_EQ(oracle.cache_capacity(), 3u);
  const Point far{3, 3};  // node 15, distinct from every source below

  (void)oracle.distance({0, 0}, far);  // forward space at node 0
  (void)oracle.distance({1, 0}, far);  // forward space at node 1
  EXPECT_TRUE(oracle.space_cached(0, /*backward=*/false));
  EXPECT_TRUE(oracle.space_cached(1, /*backward=*/false));
  EXPECT_TRUE(oracle.space_cached(15, /*backward=*/true));
  EXPECT_EQ(oracle.cache_size(), 3u);

  (void)oracle.distance({0, 0}, far);  // touch node 0
  (void)oracle.distance({2, 0}, far);  // node 2's space evicts the stale one
  EXPECT_TRUE(oracle.space_cached(0, /*backward=*/false)) << "touched space must survive";
  EXPECT_FALSE(oracle.space_cached(1, /*backward=*/false)) << "stale space must be evicted";
  EXPECT_TRUE(oracle.space_cached(2, /*backward=*/false));
  EXPECT_TRUE(oracle.space_cached(15, /*backward=*/true));
  EXPECT_EQ(oracle.cache_size(), 3u);
}

TEST(CHOracle, ClockEvictionsRacingSharedHitsKeepAnswersExact) {
  const RoadNetwork network = integer_grid(10, 10, 97);
  const std::vector<Point> points = random_points(32, 101, 9.0);
  // Capacity far below the ~64-space working set; every thread walks the
  // same points, so hits on a space race its second-chance eviction.
  const CHOracle oracle(network, ContractionHierarchy::build(network), /*cache_capacity=*/6,
                        /*shard_count=*/2);
  const auto answers = fixtures::hammer(oracle, points, /*threads=*/4, /*rounds=*/3);
  const CHOracle serial(network, ContractionHierarchy::build(network));
  for (std::size_t t = 0; t < answers.size(); ++t) {
    const std::vector<double> expected = fixtures::query_stream(serial, points, t);
    for (const std::vector<double>& round : answers[t]) {
      ASSERT_EQ(round.size(), expected.size());
      for (std::size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(round[k]),
                  std::bit_cast<std::uint64_t>(expected[k]))
            << "thread " << t << " answer " << k;
      }
    }
  }
  EXPECT_LE(oracle.cache_size(), oracle.cache_capacity());
}

}  // namespace
}  // namespace o2o::geo
