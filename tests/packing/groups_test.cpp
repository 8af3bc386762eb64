#include "packing/groups.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "geo/road_network.h"
#include "routing/route.h"
#include "tests/reference/groups.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace o2o::packing {
namespace {

const geo::EuclideanOracle kOracle;

trace::Request make_request(trace::RequestId id, geo::Point pickup, geo::Point dropoff,
                            int seats = 1) {
  trace::Request request;
  request.id = id;
  request.pickup = pickup;
  request.dropoff = dropoff;
  request.seats = seats;
  return request;
}

GroupOptions options(double theta) {
  GroupOptions opts;
  opts.detour_threshold_km = theta;
  return opts;
}

TEST(EvaluateGroup, IdenticalTripsHaveZeroDetour) {
  const std::vector<trace::Request> requests{make_request(0, {0, 0}, {5, 0}),
                                             make_request(1, {0, 0}, {5, 0})};
  bool feasible = false;
  const ShareGroup group =
      evaluate_group(requests, {0, 1}, kOracle, options(0.1), 4, feasible);
  EXPECT_TRUE(feasible);
  EXPECT_NEAR(group.max_detour_km, 0.0, 1e-9);
  EXPECT_NEAR(group.pooled_length_km, 5.0, 1e-9);
  EXPECT_NEAR(group.direct_sum_km, 10.0, 1e-9);
}

TEST(EvaluateGroup, OppositeTripsAreInfeasibleUnderTightTheta) {
  const std::vector<trace::Request> requests{make_request(0, {0, 0}, {10, 0}),
                                             make_request(1, {10, 5}, {0, 5})};
  bool feasible = true;
  evaluate_group(requests, {0, 1}, kOracle, options(0.5), 4, feasible);
  EXPECT_FALSE(feasible);
}

TEST(EvaluateGroup, SeatDemandCanExceedCapacity) {
  const std::vector<trace::Request> requests{make_request(0, {0, 0}, {5, 0}, 3),
                                             make_request(1, {0, 0}, {5, 0}, 3)};
  bool feasible = true;
  evaluate_group(requests, {0, 1}, kOracle, options(5.0), 4, feasible);
  EXPECT_FALSE(feasible);  // 6 seats > 4
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// evaluate_group prices a group from the table its route search ran on.
/// The serial reference calls evaluate_group too, so only an independent
/// pointwise re-pricing of the returned route can catch drift there.
TEST(EvaluateGroup, PricesEqualPointwiseRepricingBitwise) {
  const geo::RoadNetwork city =
      geo::RoadNetwork::make_grid_city(8, 8, 1.0, /*jitter_km=*/0.25,
                                       /*closure_fraction=*/0.15, /*seed=*/89);
  const geo::NetworkOracle network(city);
  const std::vector<std::pair<const char*, const geo::DistanceOracle*>> oracles{
      {"euclidean", &kOracle}, {"network", &network}};
  Rng rng(97);
  for (const auto& [name, oracle] : oracles) {
    for (int trial = 0; trial < 30; ++trial) {
      SCOPED_TRACE(::testing::Message() << name << " trial " << trial);
      std::vector<trace::Request> requests;
      for (int i = 0; i < 8; ++i) {
        requests.push_back(make_request(100 + i, {rng.uniform(0, 7), rng.uniform(0, 7)},
                                        {rng.uniform(0, 7), rng.uniform(0, 7)}));
      }
      // 2 and 3 distinct members in shuffled order (a group's capacity;
      // the DP's 4-rider pricing is pinned in the routing suite).
      std::vector<std::size_t> members{0, 1, 2, 3, 4, 5, 6, 7};
      rng.shuffle(members);
      members.resize(static_cast<std::size_t>(2 + trial % 2));
      bool feasible = false;
      routing::Route route;
      const ShareGroup group =
          evaluate_group(requests, members, *oracle, options(5.0), 4, feasible, &route);

      EXPECT_EQ(bits(group.pooled_length_km), bits(routing::route_length(route, *oracle)));
      EXPECT_EQ(route.stops.size(), 2 * members.size());
      ASSERT_EQ(group.member_indices, members);
      double direct_sum = 0.0;
      double max_detour = 0.0;
      for (std::size_t m = 0; m < members.size(); ++m) {
        const trace::Request& rider = requests[members[m]];
        const double direct = oracle->distance(rider.pickup, rider.dropoff);
        const double detour =
            routing::rider_metrics(route, rider.id, *oracle).ride_km - direct;
        EXPECT_EQ(bits(group.member_direct_km[m]), bits(direct)) << "member " << m;
        direct_sum += direct;
        max_detour = std::max(max_detour, detour);
      }
      EXPECT_EQ(bits(group.direct_sum_km), bits(direct_sum));
      EXPECT_EQ(bits(group.max_detour_km), bits(max_detour));
      for (std::size_t m = members.size(); m < group.member_direct_km.size(); ++m) {
        EXPECT_EQ(bits(group.member_direct_km[m]), bits(0.0)) << "spare slot " << m;
      }
    }
  }
}

TEST(EvaluateGroup, GroupsHoldAtMostThreeMembers) {
  std::vector<trace::Request> requests;
  for (int i = 0; i < 4; ++i) requests.push_back(make_request(i, {0, 0}, {5, 0}));
  bool feasible = false;
  EXPECT_THROW(evaluate_group(requests, {0, 1, 2, 3}, kOracle, options(5.0), 8, feasible),
               ContractViolation);
}

TEST(EvaluateGroup, SeatFailureLeavesTheRouteEmpty) {
  const std::vector<trace::Request> requests{make_request(0, {0, 0}, {5, 0}, 3),
                                             make_request(1, {0, 0}, {5, 0}, 3)};
  bool feasible = true;
  routing::Route route = routing::single_rider_route(requests[0]);
  evaluate_group(requests, {0, 1}, kOracle, options(5.0), 4, feasible, &route);
  EXPECT_FALSE(feasible);
  EXPECT_TRUE(route.stops.empty());
}

TEST(Enumerate, FindsTheObviousPair) {
  const std::vector<trace::Request> requests{
      make_request(0, {0, 0}, {5, 0}), make_request(1, {0.2, 0}, {5.2, 0}),
      make_request(2, {50, 50}, {60, 60})};  // far away, shares with no one
  const auto groups = enumerate_share_groups(requests, kOracle, options(1.0));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].member_indices, (std::vector<std::size_t>{0, 1}));
}

TEST(Enumerate, TriplesRequireAllMembersCompatible) {
  const std::vector<trace::Request> requests{make_request(0, {0, 0}, {5, 0}),
                                             make_request(1, {0.1, 0}, {5.1, 0}),
                                             make_request(2, {0.2, 0}, {5.2, 0})};
  const auto groups = enumerate_share_groups(requests, kOracle, options(1.0));
  // 3 pairs + 1 triple.
  EXPECT_EQ(groups.size(), 4u);
  const auto triple = std::find_if(groups.begin(), groups.end(), [](const ShareGroup& g) {
    return g.member_indices.size() == 3;
  });
  EXPECT_NE(triple, groups.end());
}

TEST(Enumerate, MaxGroupSizeTwoSkipsTriples) {
  const std::vector<trace::Request> requests{make_request(0, {0, 0}, {5, 0}),
                                             make_request(1, {0.1, 0}, {5.1, 0}),
                                             make_request(2, {0.2, 0}, {5.2, 0})};
  GroupOptions opts = options(1.0);
  opts.max_group_size = 2;
  const auto groups = enumerate_share_groups(requests, kOracle, opts);
  EXPECT_EQ(groups.size(), 3u);
  for (const ShareGroup& group : groups) EXPECT_EQ(group.member_indices.size(), 2u);
}

TEST(Enumerate, PickupRadiusPrefilterDropsDistantPairs) {
  const std::vector<trace::Request> requests{make_request(0, {0, 0}, {30, 0}),
                                             make_request(1, {20, 0}, {30, 0})};
  GroupOptions generous = options(100.0);
  EXPECT_EQ(enumerate_share_groups(requests, kOracle, generous).size(), 1u);
  generous.pickup_radius_km = 5.0;
  EXPECT_TRUE(enumerate_share_groups(requests, kOracle, generous).empty());
}

TEST(Enumerate, PairPruningMatchesExhaustiveOnCompactClusters) {
  // When all riders sit in one compact cluster, triple feasibility implies
  // pair feasibility, so pruned and exhaustive enumeration agree.
  Rng rng(51);
  std::vector<trace::Request> requests;
  for (int i = 0; i < 7; ++i) {
    const geo::Point pickup{rng.uniform(0, 1.5), rng.uniform(0, 1.5)};
    const geo::Point dropoff{10.0 + rng.uniform(0, 1.5), rng.uniform(0, 1.5)};
    requests.push_back(make_request(i, pickup, dropoff));
  }
  const auto a = enumerate_share_groups(requests, kOracle, options(4.0));
  const auto b = reference::enumerate_exhaustive(requests, kOracle, options(4.0));
  EXPECT_EQ(a.size(), b.size());
}

TEST(Enumerate, EmptyAndSingletonInputs) {
  EXPECT_TRUE(enumerate_share_groups({}, kOracle, options(1.0)).empty());
  const std::vector<trace::Request> one{make_request(0, {0, 0}, {1, 0})};
  EXPECT_TRUE(enumerate_share_groups(one, kOracle, options(1.0)).empty());
}

TEST(Enumerate, GroupRecordsConsistentDetours) {
  Rng rng(52);
  std::vector<trace::Request> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(make_request(i, {rng.uniform(0, 3), rng.uniform(0, 3)},
                                    {rng.uniform(5, 9), rng.uniform(5, 9)}));
  }
  const auto groups = enumerate_share_groups(requests, kOracle, options(2.0));
  for (const ShareGroup& group : groups) {
    EXPECT_LE(group.max_detour_km, 2.0 + 1e-9);
    EXPECT_GE(group.max_detour_km, -1e-9);
    // Pooling can't be shorter than the longest single direct trip.
    double longest_direct = 0.0;
    for (std::size_t index : group.member_indices) {
      longest_direct = std::max(longest_direct,
                                kOracle.distance(requests[index].pickup,
                                                 requests[index].dropoff));
    }
    EXPECT_GE(group.pooled_length_km + 1e-9, longest_direct);
  }
}

}  // namespace
}  // namespace o2o::packing
