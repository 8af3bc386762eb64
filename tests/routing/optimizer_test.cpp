#include "routing/optimizer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "geo/road_network.h"
#include "tests/reference/routes.h"
#include "util/contracts.h"
#include "util/rng.h"

// Every global allocation in this binary bumps the counter, so a test can
// read it around a hot loop. The replacements pair malloc with free; GCC
// cannot see that through the replaced operators and warns.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

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
    const Route exhaustive = optimal_route(riders, kOracle, start);
    const Route dp = reference::optimal_route_dp(riders, kOracle, start);
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
  const Route route = reference::optimal_route_dp(riders, kOracle, geo::Point{0, 0});
  EXPECT_EQ(route.stop_count(), 10u);
  EXPECT_TRUE(respects_precedence(route));
}

TEST(OptimalRoute, SizeLimitsEnforced) {
  Rng rng(24);
  const auto riders = random_riders(rng, 5);
  EXPECT_THROW(optimal_route(riders, kOracle), o2o::ContractViolation);
  EXPECT_THROW(AnchoredRouteSolver(riders, kOracle), o2o::ContractViolation);
  const auto too_many = random_riders(rng, 9);
  EXPECT_THROW(reference::optimal_route_dp(too_many, kOracle), o2o::ContractViolation);
  EXPECT_THROW(optimal_route({}, kOracle), o2o::ContractViolation);
}

TEST(AnchoredSolver, MatchesOptimalRouteAcrossAnchors) {
  Rng rng(25);
  for (int trial = 0; trial < 10; ++trial) {
    const auto riders = random_riders(rng, 1 + static_cast<int>(rng.uniform_index(3)));
    const AnchoredRouteSolver solver(riders, kOracle);
    for (int a = 0; a < 5; ++a) {
      const geo::Point start{rng.uniform(-15, 15), rng.uniform(-15, 15)};
      const Route via_solver = solver.best_route(start);
      const Route direct = optimal_route(riders, kOracle, start);
      EXPECT_NEAR(route_length(via_solver, kOracle), route_length(direct, kOracle), 1e-9);
      EXPECT_NEAR(solver.best_order(start).length_km, route_length(direct, kOracle), 1e-9);
    }
  }
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// A priced order must equal route_length / rider_metrics recomputed
/// pointwise on the route built from it, bit for bit.
void expect_prices_match_pointwise(const PricedOrder& priced, const Route& route,
                                   const std::vector<trace::Request>& riders,
                                   const geo::DistanceOracle& oracle) {
  EXPECT_TRUE(respects_precedence(priced));
  EXPECT_EQ(bits(priced.length_km), bits(route_length(route, oracle)));
  for (std::size_t m = 0; m < riders.size(); ++m) {
    const RiderMetrics expected = rider_metrics(route, riders[m].id, oracle);
    EXPECT_EQ(bits(priced.rider(m).wait_km), bits(expected.wait_km)) << "rider " << m;
    EXPECT_EQ(bits(priced.rider(m).ride_km), bits(expected.ride_km)) << "rider " << m;
  }
}

/// Field-by-field bitwise equality of two priced orders.
void expect_same_order(const PricedOrder& got, const PricedOrder& want) {
  ASSERT_EQ(got.stop_count, want.stop_count);
  for (std::size_t k = 0; k < want.stop_count; ++k) {
    EXPECT_EQ(got.order[k], want.order[k]) << "position " << k;
    EXPECT_EQ(bits(got.arrival_km[k]), bits(want.arrival_km[k])) << "stop " << k;
  }
  EXPECT_EQ(bits(got.length_km), bits(want.length_km));
}

TEST(PricedRoute, EqualsPointwiseRepricingBitwise) {
  const geo::RoadNetwork city =
      geo::RoadNetwork::make_grid_city(8, 8, 1.0, /*jitter_km=*/0.25,
                                       /*closure_fraction=*/0.15, /*seed=*/83);
  const geo::NetworkOracle network(city);
  const std::vector<std::pair<const char*, const geo::DistanceOracle*>> oracles{
      {"euclidean", &kOracle}, {"network", &network}};
  Rng rng(27);
  for (const auto& [name, oracle] : oracles) {
    RouteScratch scratch;
    for (int trial = 0; trial < 24; ++trial) {
      SCOPED_TRACE(::testing::Message() << name << " trial " << trial);
      // 1-4 riders through the one exhaustive search, anchored and not.
      std::vector<trace::Request> riders;
      for (int i = 0; i < 1 + trial % 4; ++i) {
        riders.push_back(make_request(i, {rng.uniform(0, 7), rng.uniform(0, 7)},
                                      {rng.uniform(0, 7), rng.uniform(0, 7)}));
      }
      const geo::Point start{rng.uniform(0, 7), rng.uniform(0, 7)};

      const AnchoredRouteSolver solver(riders, *oracle);
      expect_prices_match_pointwise(solver.best_order(start), solver.best_route(start), riders,
                                    *oracle);
      for (const std::optional<geo::Point> anchor : {std::optional<geo::Point>(start),
                                                     std::optional<geo::Point>()}) {
        const PricedOrder priced = optimal_order(riders, *oracle, anchor, scratch);
        expect_prices_match_pointwise(priced, route_from_order(scratch.stops, priced, anchor),
                                      riders, *oracle);
      }
      for (std::size_t m = 0; m < riders.size(); ++m) {
        EXPECT_EQ(bits(scratch.direct_km(m)),
                  bits(oracle->distance(riders[m].pickup, riders[m].dropoff)));
      }
    }
  }
}

/// 1-4 riders with coordinates drawn from a 3 x 3 lattice, so stops
/// coincide and equal-length orders are common.
std::vector<trace::Request> lattice_riders(Rng& rng, int count, double spacing) {
  const auto coordinate = [&] { return spacing * static_cast<double>(rng.uniform_index(3)); };
  std::vector<trace::Request> riders;
  for (int i = 0; i < count; ++i) {
    riders.push_back(make_request(i, {coordinate(), coordinate()}, {coordinate(), coordinate()}));
  }
  return riders;
}

TEST(AnchoredSolver, BestOrderEqualsTheFirstFoundOptimumBitwise) {
  // The reference scans every stop permutation in lexicographic order and
  // keeps the first strictly shortest feasible one, which is the order a
  // depth-first search in stop-index order keeps. Equal-length orders
  // check the tie-breaking: identical riders (any swap of their roles
  // ties) and lattice coordinates (coincident stops, Manhattan ties).
  const geo::ManhattanOracle manhattan;
  const geo::RoadNetwork city =
      geo::RoadNetwork::make_grid_city(8, 8, 1.0, /*jitter_km=*/0.25,
                                       /*closure_fraction=*/0.15, /*seed=*/83);
  const geo::NetworkOracle network(city);
  const std::vector<std::pair<const char*, const geo::DistanceOracle*>> oracles{
      {"euclidean", &kOracle}, {"manhattan", &manhattan}, {"network", &network}};
  Rng rng(28);
  for (const auto& [name, oracle] : oracles) {
    RouteScratch scratch;
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(::testing::Message() << name << " trial " << trial);
      const int count = 1 + trial % 4;
      std::vector<trace::Request> riders = lattice_riders(rng, count, 3.0);
      if (trial % 5 == 4) {
        // Every rider the same trip: all role swaps tie.
        for (trace::Request& rider : riders) {
          rider.pickup = riders[0].pickup;
          rider.dropoff = riders[0].dropoff;
        }
      }
      const geo::Point start{3.0 * static_cast<double>(rng.uniform_index(3)),
                             3.0 * static_cast<double>(rng.uniform_index(3))};

      const PricedOrder want = reference::brute_force_order(riders, *oracle, start);
      const AnchoredRouteSolver solver(riders, *oracle);
      const PricedOrder got = solver.best_order(start);
      expect_same_order(got, want);
      const Route route = solver.best_route(start);
      ASSERT_EQ(route.stop_count(), want.stop_count);
      EXPECT_EQ(route.start, std::optional<geo::Point>(start));
      for (std::size_t k = 0; k < want.stop_count; ++k) {
        const trace::Request& rider = riders[want.order[k] / 2];
        const bool pickup = want.order[k] % 2 == 0;
        EXPECT_EQ(route.stops[k],
                  (Stop{rider.id, pickup, pickup ? rider.pickup : rider.dropoff}));
      }
      expect_same_order(optimal_order(riders, *oracle, start, scratch), want);
      expect_same_order(optimal_order(riders, *oracle, std::nullopt, scratch),
                        reference::brute_force_order(riders, *oracle, std::nullopt));
      EXPECT_EQ(optimal_route(riders, *oracle, start).stops, route.stops);
    }
  }
}

TEST(AnchoredSolver, WarmBestOrderAllocatesNothing) {
  Rng rng(29);
  const auto riders = random_riders(rng, 3);
  const AnchoredRouteSolver solver(riders, kOracle);
  std::vector<geo::Point> starts;
  for (int i = 0; i < 1000; ++i) starts.push_back({rng.uniform(-15, 15), rng.uniform(-15, 15)});
  double sum = solver.best_order(starts[0]).length_km;  // warm
  const std::size_t before = g_allocations.load();
  for (const geo::Point& start : starts) sum += solver.best_order(start).length_km;
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_GT(sum, 0.0);
}

TEST(PricedOrder, PrecedenceIsCheckedOnStopIndices) {
  PricedOrder priced;
  priced.stop_count = 4;
  priced.order = {0, 2, 1, 3};
  EXPECT_TRUE(respects_precedence(priced));
  priced.order = {0, 3, 2, 1};  // rider 1's drop-off before its pick-up
  EXPECT_FALSE(respects_precedence(priced));
  priced.order = {0, 1, 0, 3};  // stop 0 twice, stop 2 missing
  EXPECT_FALSE(respects_precedence(priced));
  priced.order = {0, 1, 2, 4};  // index past the stops
  EXPECT_FALSE(respects_precedence(priced));
  // Two riders under one id: a route cannot tell them apart, the order can.
  const std::vector<trace::Request> twins{make_request(5, {0, 0}, {3, 0}),
                                          make_request(5, {1, 0}, {2, 0})};
  RouteScratch scratch;
  const PricedOrder order = optimal_order(twins, kOracle, std::nullopt, scratch);
  EXPECT_TRUE(respects_precedence(order));
  EXPECT_THROW(route_from_order(scratch.stops, order, std::nullopt), o2o::ContractViolation);
}

TEST(AnchoredSolver, ReportsRiderCount) {
  Rng rng(26);
  const AnchoredRouteSolver solver(random_riders(rng, 2), kOracle);
  EXPECT_EQ(solver.rider_count(), 2u);
}

}  // namespace
}  // namespace o2o::routing
