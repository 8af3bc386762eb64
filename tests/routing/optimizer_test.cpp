#include "routing/optimizer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "geo/ch/ch_oracle.h"
#include "geo/road_network.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace o2o::routing {
namespace {

const geo::EuclideanOracle kOracle;

trace::Request make_request(trace::RequestId id, geo::Point pickup, geo::Point dropoff) {
  trace::Request request;
  request.id = id;
  request.pickup = pickup;
  request.dropoff = dropoff;
  return request;
}

std::vector<trace::Request> random_riders(Rng& rng, int count) {
  std::vector<trace::Request> riders;
  for (int i = 0; i < count; ++i) {
    riders.push_back(make_request(i, {rng.uniform(-10, 10), rng.uniform(-10, 10)},
                                  {rng.uniform(-10, 10), rng.uniform(-10, 10)}));
  }
  return riders;
}

TEST(FeasibleOrderCount, MatchesTheFormula) {
  EXPECT_EQ(feasible_order_count(0), 1);
  EXPECT_EQ(feasible_order_count(1), 1);
  EXPECT_EQ(feasible_order_count(2), 6);
  EXPECT_EQ(feasible_order_count(3), 90);  // the paper's 6!/(2!2!2!)
  EXPECT_EQ(feasible_order_count(4), 2520);
}

TEST(OptimalRoute, SingleRiderIsPickupDropoff) {
  const auto rider = make_request(0, {1, 0}, {2, 0});
  const Route route = optimal_route({&rider, 1}, kOracle, geo::Point{0, 0});
  ASSERT_EQ(route.stop_count(), 2u);
  EXPECT_TRUE(route.stops[0].is_pickup);
  EXPECT_DOUBLE_EQ(route_length(route, kOracle), 2.0);
}

TEST(OptimalRoute, CollinearPairPrefersInterleaving) {
  // A: (0,0)->(3,0), B: (1,0)->(2,0). Optimal: pick A, pick B, drop B,
  // drop A, total length 3 from A's pickup.
  const std::vector<trace::Request> riders{make_request(0, {0, 0}, {3, 0}),
                                           make_request(1, {1, 0}, {2, 0})};
  const Route route = optimal_route(riders, kOracle);
  EXPECT_DOUBLE_EQ(route_length(route, kOracle), 3.0);
  EXPECT_TRUE(respects_precedence(route));
}

TEST(OptimalRoute, AnchorChangesTheBestOrder) {
  // Two riders on opposite sides of the taxi: the route should start with
  // the nearer pickup.
  const std::vector<trace::Request> riders{make_request(0, {1, 0}, {2, 0}),
                                           make_request(1, {-5, 0}, {-6, 0})};
  const Route route = optimal_route(riders, kOracle, geo::Point{0, 0});
  EXPECT_EQ(route.stops.front().request, 0);
}

TEST(OptimalRoute, ExhaustiveEqualsDpOnRandomInstances) {
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    const int riders_count = 1 + static_cast<int>(rng.uniform_index(4));
    const auto riders = random_riders(rng, riders_count);
    const std::optional<geo::Point> start =
        rng.bernoulli(0.5) ? std::optional<geo::Point>({rng.uniform(-10, 10),
                                                        rng.uniform(-10, 10)})
                           : std::nullopt;
    const Route exhaustive = optimal_route_exhaustive(riders, kOracle, start);
    const Route dp = optimal_route_dp(riders, kOracle, start);
    EXPECT_NEAR(route_length(exhaustive, kOracle), route_length(dp, kOracle), 1e-9)
        << "trial " << trial;
    EXPECT_TRUE(respects_precedence(dp));
  }
}

TEST(OptimalRoute, BeatsOrTiesRandomFeasibleOrders) {
  Rng rng(22);
  for (int trial = 0; trial < 20; ++trial) {
    const auto riders = random_riders(rng, 3);
    const Route best = optimal_route(riders, kOracle);
    const double best_length = route_length(best, kOracle);
    // Any "pickup all, then drop all" order is feasible; none may beat it.
    std::vector<int> order{0, 1, 2};
    for (int shuffle = 0; shuffle < 6; ++shuffle) {
      rng.shuffle(order);
      Route candidate;
      for (int i : order) {
        candidate.stops.push_back(Stop{riders[static_cast<std::size_t>(i)].id, true,
                                       riders[static_cast<std::size_t>(i)].pickup});
      }
      for (int i : order) {
        candidate.stops.push_back(Stop{riders[static_cast<std::size_t>(i)].id, false,
                                       riders[static_cast<std::size_t>(i)].dropoff});
      }
      EXPECT_LE(best_length, route_length(candidate, kOracle) + 1e-9);
    }
  }
}

TEST(OptimalRoute, DpHandlesFiveRiders) {
  Rng rng(23);
  const auto riders = random_riders(rng, 5);
  const Route route = optimal_route(riders, kOracle, geo::Point{0, 0});
  EXPECT_EQ(route.stop_count(), 10u);
  EXPECT_TRUE(respects_precedence(route));
}

TEST(OptimalRoute, SizeLimitsEnforced) {
  Rng rng(24);
  const auto riders = random_riders(rng, 5);
  EXPECT_THROW(optimal_route_exhaustive(riders, kOracle), o2o::ContractViolation);
  const auto too_many = random_riders(rng, 9);
  EXPECT_THROW(optimal_route_dp(too_many, kOracle), o2o::ContractViolation);
  EXPECT_THROW(optimal_route({}, kOracle), o2o::ContractViolation);
}

TEST(AnchoredSolver, MatchesOptimalRouteAcrossAnchors) {
  Rng rng(25);
  for (int trial = 0; trial < 10; ++trial) {
    const auto riders = random_riders(rng, 1 + static_cast<int>(rng.uniform_index(3)));
    const AnchoredRouteSolver solver(riders, kOracle);
    for (int a = 0; a < 5; ++a) {
      const geo::Point start{rng.uniform(-15, 15), rng.uniform(-15, 15)};
      const Route via_solver = solver.best_route(start).route;
      const Route direct = optimal_route(riders, kOracle, start);
      EXPECT_NEAR(route_length(via_solver, kOracle), route_length(direct, kOracle), 1e-9);
      EXPECT_NEAR(solver.best_route(start).length_km, route_length(direct, kOracle), 1e-9);
    }
  }
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// A priced route must equal route_length / rider_metrics / distance
/// recomputed pointwise on its own stops, bit for bit.
void expect_prices_match_pointwise(const PricedRoute& priced,
                                   const std::vector<trace::Request>& riders,
                                   const geo::DistanceOracle& oracle) {
  EXPECT_EQ(bits(priced.length_km), bits(route_length(priced.route, oracle)));
  for (std::size_t m = 0; m < riders.size(); ++m) {
    const RiderMetrics expected = rider_metrics(priced.route, riders[m].id, oracle);
    EXPECT_EQ(bits(priced.rider(m).wait_km), bits(expected.wait_km)) << "rider " << m;
    EXPECT_EQ(bits(priced.rider(m).ride_km), bits(expected.ride_km)) << "rider " << m;
  }
}

TEST(PricedRoute, EqualsPointwiseRepricingBitwise) {
  const geo::RoadNetwork city =
      geo::RoadNetwork::make_grid_city(8, 8, 1.0, /*jitter_km=*/0.25,
                                       /*closure_fraction=*/0.15, /*seed=*/83);
  const geo::NetworkOracle network(city);
  const geo::CHOracle ch(city, geo::ContractionHierarchy::build(city));
  const std::vector<std::pair<const char*, const geo::DistanceOracle*>> oracles{
      {"euclidean", &kOracle}, {"network", &network}, {"ch", &ch}};
  Rng rng(27);
  for (const auto& [name, oracle] : oracles) {
    RouteScratch scratch;
    for (int trial = 0; trial < 24; ++trial) {
      SCOPED_TRACE(::testing::Message() << name << " trial " << trial);
      // 1-4 riders: the exhaustive search up to 3, the DP at 4 (and the
      // anchored solver's exhaustive search throughout).
      std::vector<trace::Request> riders;
      for (int i = 0; i < 1 + trial % 4; ++i) {
        riders.push_back(make_request(i, {rng.uniform(0, 7), rng.uniform(0, 7)},
                                      {rng.uniform(0, 7), rng.uniform(0, 7)}));
      }
      const geo::Point start{rng.uniform(0, 7), rng.uniform(0, 7)};

      const AnchoredRouteSolver solver(riders, *oracle);
      expect_prices_match_pointwise(solver.best_route(start), riders, *oracle);
      expect_prices_match_pointwise(optimal_route(riders, *oracle, start, scratch), riders,
                                    *oracle);
      expect_prices_match_pointwise(optimal_route(riders, *oracle, std::nullopt, scratch),
                                    riders, *oracle);
      for (std::size_t m = 0; m < riders.size(); ++m) {
        EXPECT_EQ(bits(scratch.direct_km(m)),
                  bits(oracle->distance(riders[m].pickup, riders[m].dropoff)));
      }
    }
  }
}

TEST(AnchoredSolver, ReportsRiderCount) {
  Rng rng(26);
  const AnchoredRouteSolver solver(random_riders(rng, 2), kOracle);
  EXPECT_EQ(solver.rider_count(), 2u);
}

}  // namespace
}  // namespace o2o::routing
