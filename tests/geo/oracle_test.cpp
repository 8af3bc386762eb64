#include "geo/distance_oracle.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "geo/ch/ch_oracle.h"
#include "geo/road_network.h"
#include "tests/geo/test_networks.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace o2o::geo {
namespace {

TEST(EuclideanOracle, MatchesFreeFunction) {
  const EuclideanOracle oracle;
  EXPECT_DOUBLE_EQ(oracle.distance({0, 0}, {3, 4}), 5.0);
}

TEST(ManhattanOracle, MatchesFreeFunction) {
  const ManhattanOracle oracle;
  EXPECT_DOUBLE_EQ(oracle.distance({0, 0}, {3, 4}), 7.0);
}

TEST(CircuityOracle, ScalesEuclidean) {
  const CircuityOracle oracle(1.3);
  EXPECT_DOUBLE_EQ(oracle.distance({0, 0}, {3, 4}), 6.5);
  EXPECT_DOUBLE_EQ(oracle.factor(), 1.3);
}

TEST(CircuityOracle, RejectsFactorBelowOne) {
  EXPECT_THROW(CircuityOracle(0.9), ContractViolation);
}

/// Metric axioms that every oracle in the library must satisfy.
class OracleAxioms : public ::testing::TestWithParam<int> {
 protected:
  const DistanceOracle& oracle() const {
    static const EuclideanOracle euclidean;
    static const ManhattanOracle manhattan;
    static const CircuityOracle circuity{1.4};
    switch (GetParam()) {
      case 0:
        return euclidean;
      case 1:
        return manhattan;
      default:
        return circuity;
    }
  }
};

TEST_P(OracleAxioms, IdentityNonNegativitySymmetryTriangle) {
  Rng rng(99 + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const Point a{rng.uniform(-50, 50), rng.uniform(-50, 50)};
    const Point b{rng.uniform(-50, 50), rng.uniform(-50, 50)};
    const Point c{rng.uniform(-50, 50), rng.uniform(-50, 50)};
    EXPECT_DOUBLE_EQ(oracle().distance(a, a), 0.0);
    EXPECT_GE(oracle().distance(a, b), 0.0);
    EXPECT_DOUBLE_EQ(oracle().distance(a, b), oracle().distance(b, a));
    EXPECT_LE(oracle().distance(a, c),
              oracle().distance(a, b) + oracle().distance(b, c) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOracles, OracleAxioms, ::testing::Values(0, 1, 2));

TEST_P(OracleAxioms, DefaultBulkQueriesMatchPointwise) {
  Rng rng(7 + static_cast<std::uint64_t>(GetParam()));
  const Point anchor{rng.uniform(-50, 50), rng.uniform(-50, 50)};
  std::vector<Point> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back({rng.uniform(-50, 50), rng.uniform(-50, 50)});
  }
  const std::vector<double> from = oracle().distances_from(anchor, batch);
  const std::vector<double> to = oracle().distances_to(batch, anchor);
  ASSERT_EQ(from.size(), batch.size());
  ASSERT_EQ(to.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(from[i], oracle().distance(anchor, batch[i]));
    EXPECT_DOUBLE_EQ(to[i], oracle().distance(batch[i], anchor));
  }
  EXPECT_TRUE(oracle().distances_from(anchor, {}).empty());
  EXPECT_TRUE(oracle().distances_to({}, anchor).empty());
  oracle().prepare_frame(batch);  // default no-op must be callable
}

/// The row contract route pricing rests on (DistanceOracle's class
/// comment): every distances_from / distances_from_into entry equals
/// distance() bit for bit, on every in-tree oracle — metric surfaces and
/// both road backends, on integer- and float-weight graphs.
class OracleRowContract : public ::testing::TestWithParam<std::string> {
 protected:
  static const DistanceOracle& oracle(const std::string& kind) {
    static const RoadNetwork integer_city = fixtures::integer_grid(10, 10, 71);
    static const RoadNetwork float_city =
        RoadNetwork::make_grid_city(10, 10, 1.0, /*jitter_km=*/0.25,
                                    /*closure_fraction=*/0.15, /*seed=*/73);
    static const EuclideanOracle euclidean;
    static const ManhattanOracle manhattan;
    static const CircuityOracle circuity{1.3};
    static const NetworkOracle network_integer(integer_city);
    static const NetworkOracle network_float(float_city);
    static const CHOracle ch_integer(integer_city, ContractionHierarchy::build(integer_city));
    static const CHOracle ch_float(float_city, ContractionHierarchy::build(float_city));
    if (kind == "euclidean") return euclidean;
    if (kind == "manhattan") return manhattan;
    if (kind == "circuity") return circuity;
    if (kind == "network_integer") return network_integer;
    if (kind == "network_float") return network_float;
    if (kind == "ch_integer") return ch_integer;
    return ch_float;
  }
};

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST_P(OracleRowContract, DistancesFromEqualsPointwiseBitwise) {
  const DistanceOracle& subject = oracle(GetParam());
  std::vector<Point> points = fixtures::random_points(48, 79, 9.0);
  // Repeated points and near-twins that snap to one node exercise the
  // same-node (straight-line) branch of the network oracles.
  points.push_back(points[3]);
  points.push_back(Point{points[5].x + 1e-4, points[5].y - 1e-4});
  std::vector<double> into(points.size());
  for (const Point& source : points) {
    const std::vector<double> row = subject.distances_from(source, points);
    subject.distances_from_into(source, points, into.data());
    ASSERT_EQ(row.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const double pointwise = subject.distance(source, points[i]);
      EXPECT_EQ(bits(row[i]), bits(pointwise)) << GetParam() << " target " << i;
      EXPECT_EQ(bits(into[i]), bits(pointwise)) << GetParam() << " target " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(InTreeOracles, OracleRowContract,
                         ::testing::Values("euclidean", "manhattan", "circuity",
                                           "network_integer", "network_float", "ch_integer",
                                           "ch_float"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace o2o::geo
