// Differential suite for the parallel grid-pruned sharing engine: the
// pruned ThreadPool path must reproduce the dense serial scan bit for
// bit, the bitset set-packing solvers must reproduce the legacy byte-map
// solvers (both references live in tests/reference), and the exact solver
// must dominate the approximations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "core/sharing.h"
#include "packing/groups.h"
#include "packing/set_packing.h"
#include "tests/reference/groups.h"
#include "tests/reference/set_packing.h"
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

/// City-style frame: pick-ups over an `extent_km` square, trips 1-4 km.
std::vector<trace::Request> make_city_requests(int count, std::uint64_t seed,
                                               double extent_km) {
  Rng rng(seed);
  std::vector<trace::Request> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const geo::Point pickup{rng.uniform(0.0, extent_km), rng.uniform(0.0, extent_km)};
    const double angle = rng.uniform(0.0, 6.283185307179586);
    const double trip = rng.uniform(1.0, 4.0);
    const geo::Point dropoff{pickup.x + trip * std::cos(angle),
                             pickup.y + trip * std::sin(angle)};
    requests.push_back(make_request(i, pickup, dropoff, 1 + (i % 2)));
  }
  return requests;
}

void expect_routes_equal(const routing::Route& a, const routing::Route& b) {
  ASSERT_EQ(a.start.has_value(), b.start.has_value());
  if (a.start.has_value()) {
    EXPECT_EQ(a.start->x, b.start->x);
    EXPECT_EQ(a.start->y, b.start->y);
  }
  ASSERT_EQ(a.stops.size(), b.stops.size());
  for (std::size_t s = 0; s < a.stops.size(); ++s) {
    EXPECT_EQ(a.stops[s].request, b.stops[s].request);
    EXPECT_EQ(a.stops[s].is_pickup, b.stops[s].is_pickup);
    EXPECT_EQ(a.stops[s].point.x, b.stops[s].point.x);
    EXPECT_EQ(a.stops[s].point.y, b.stops[s].point.y);
  }
}

/// Bit-for-bit group equality: same members, same order, same doubles;
/// the route evaluate_group returns for each engine group's members must
/// equal the serial scan's route for that group.
void expect_groups_equal(const std::vector<trace::Request>& requests,
                         const GroupOptions& options, const std::vector<ShareGroup>& parallel,
                         const std::vector<ShareGroup>& serial,
                         const std::vector<routing::Route>& serial_routes) {
  ASSERT_EQ(parallel.size(), serial.size());
  ASSERT_EQ(serial_routes.size(), serial.size());
  for (std::size_t g = 0; g < parallel.size(); ++g) {
    EXPECT_EQ(parallel[g].member_indices, serial[g].member_indices);
    EXPECT_EQ(parallel[g].pooled_length_km, serial[g].pooled_length_km);
    EXPECT_EQ(parallel[g].direct_sum_km, serial[g].direct_sum_km);
    EXPECT_EQ(parallel[g].max_detour_km, serial[g].max_detour_km);
    EXPECT_EQ(parallel[g].member_direct_km, serial[g].member_direct_km);
    routing::Route route;
    bool feasible = false;
    evaluate_group(requests, parallel[g].member_indices, kOracle, options, 4, feasible, &route);
    EXPECT_TRUE(feasible);
    expect_routes_equal(route, serial_routes[g]);
  }
}

void run_enumeration_differential(const std::vector<trace::Request>& requests,
                                  const GroupOptions& options) {
  const auto pruned = enumerate_share_groups(requests, kOracle, options);
  std::vector<routing::Route> serial_routes;
  const auto serial = reference::enumerate_serial(requests, kOracle, options, 4, &serial_routes);
  expect_groups_equal(requests, options, pruned, serial, serial_routes);
}

TEST(EnumerationDifferential, DerivedRadiusOnlyMatchesSerialScan) {
  // Default options: infinite user radius, so only the θ-derived bound
  // prunes — the tentpole's calibrated default.
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    GroupOptions options;
    options.detour_threshold_km = 3.0;
    run_enumeration_differential(make_city_requests(48, seed, 18.0), options);
  }
}

TEST(EnumerationDifferential, UserRadiusAndDerivedBoundCompose) {
  GroupOptions options;
  options.detour_threshold_km = 4.0;
  options.pickup_radius_km = 2.5;
  run_enumeration_differential(make_city_requests(48, 21, 15.0), options);
}

TEST(EnumerationDifferential, NoSavingConstraintDisablesDerivedPruning) {
  // require_saving = false invalidates the θ-derivation (sequential
  // pooled routes become legal); the engine must fall back to the user
  // radius alone and still match the serial scan.
  GroupOptions options;
  options.detour_threshold_km = 2.0;
  options.require_saving = false;
  options.pickup_radius_km = 3.0;
  run_enumeration_differential(make_city_requests(40, 31, 12.0), options);
}

TEST(EnumerationDifferential, ExhaustiveTripleModeMatches) {
  // The engine grows triples from feasible pairs; the reference's
  // exhaustive scan evaluates every triple. They must agree on every
  // pair and on every triple whose three pairs are feasible, record for
  // record, and the exhaustive scan may only add triples with an
  // infeasible pair.
  GroupOptions options;
  options.detour_threshold_km = 3.0;
  const auto requests = make_city_requests(18, 41, 6.0);
  const auto engine = enumerate_share_groups(requests, kOracle, options);
  std::vector<routing::Route> routes;
  const auto exhaustive =
      reference::enumerate_exhaustive(requests, kOracle, options, 4, &routes);
  std::set<std::pair<std::size_t, std::size_t>> feasible_pairs;
  for (const ShareGroup& group : exhaustive) {
    if (group.member_indices.size() == 2) {
      feasible_pairs.emplace(group.member_indices[0], group.member_indices[1]);
    }
  }
  const auto pairs_feasible = [&](const ShareGroup& group) {
    const auto& m = group.member_indices;
    return m.size() == 2 ||
           (feasible_pairs.count({m[0], m[1]}) != 0 && feasible_pairs.count({m[0], m[2]}) != 0 &&
            feasible_pairs.count({m[1], m[2]}) != 0);
  };
  std::vector<ShareGroup> grown;
  std::vector<routing::Route> grown_routes;
  for (std::size_t g = 0; g < exhaustive.size(); ++g) {
    if (!pairs_feasible(exhaustive[g])) continue;
    grown.push_back(exhaustive[g]);
    grown_routes.push_back(routes[g]);
  }
  ASSERT_FALSE(grown.empty());
  expect_groups_equal(requests, options, engine, grown, grown_routes);
}

TEST(EnumerationDifferential, PairsOnlyMatches) {
  GroupOptions options;
  options.detour_threshold_km = 3.0;
  options.max_group_size = 2;
  run_enumeration_differential(make_city_requests(48, 51, 14.0), options);
}

TEST(EnumerationDifferential, ZeroRequestFrame) {
  GroupOptions options;
  EXPECT_TRUE(enumerate_share_groups({}, kOracle, options).empty());
}

TEST(EnumerationDifferential, AllInfeasibleFrame) {
  // Trips radiating outward from distinct corners: nothing shares.
  std::vector<trace::Request> requests;
  for (int i = 0; i < 20; ++i) {
    const double base = 100.0 * static_cast<double>(i);
    requests.push_back(make_request(i, {base, 0.0}, {base + 2.0, 0.0}));
  }
  GroupOptions options;
  options.detour_threshold_km = 1.0;
  EXPECT_TRUE(enumerate_share_groups(requests, kOracle, options).empty());
  run_enumeration_differential(requests, options);
}

TEST(DerivedBound, FeasiblePairsRespectHalfThetaPlusDirect) {
  // The pruning derivation, checked on realized groups: a feasible
  // saving pair's pick-ups satisfy euclid <= θ/2 + max(direct_i, direct_j).
  const double theta = 3.0;
  GroupOptions options;
  options.detour_threshold_km = theta;
  options.max_group_size = 2;
  const auto requests = make_city_requests(64, 61, 16.0);
  for (const ShareGroup& group : enumerate_share_groups(requests, kOracle, options)) {
    const trace::Request& a = requests[group.member_indices[0]];
    const trace::Request& b = requests[group.member_indices[1]];
    const double bound =
        theta / 2.0 +
        std::max(group.member_direct_km[0], group.member_direct_km[1]) + 1e-6;
    EXPECT_LE(geo::euclidean_distance(a.pickup, b.pickup), bound);
  }
}

TEST(MemberDirects, CarryTheOracleDistances) {
  const auto requests = make_city_requests(24, 71, 8.0);
  GroupOptions options;
  options.detour_threshold_km = 4.0;
  for (const ShareGroup& group : enumerate_share_groups(requests, kOracle, options)) {
    // One direct per member; the fixed array's spare slots stay zero.
    ASSERT_GE(group.member_indices.size(), 2u);
    for (std::size_t m = group.member_indices.size(); m < group.member_direct_km.size(); ++m) {
      EXPECT_EQ(group.member_direct_km[m], 0.0);
    }
    double sum = 0.0;
    for (std::size_t m = 0; m < group.member_indices.size(); ++m) {
      const trace::Request& rider = requests[group.member_indices[m]];
      EXPECT_EQ(group.member_direct_km[m], kOracle.distance(rider.pickup, rider.dropoff));
      sum += group.member_direct_km[m];
    }
    EXPECT_EQ(sum, group.direct_sum_km);
  }
}

// ---------------------------------------------------------------------------
// Set-packing solvers vs the preserved legacy implementations.

SetPackingProblem random_problem(std::uint64_t seed, std::size_t universe,
                                 std::size_t set_count, bool tie_free) {
  Rng rng(seed);
  SetPackingProblem problem;
  problem.universe_size = universe;
  for (std::size_t s = 0; s < set_count; ++s) {
    const std::size_t size = 2 + rng.uniform_index(2);  // 2 or 3 members
    std::vector<std::size_t> members;
    while (members.size() < size) {
      const std::size_t e = rng.uniform_index(universe);
      if (std::find(members.begin(), members.end(), e) == members.end()) {
        members.push_back(e);
      }
    }
    std::sort(members.begin(), members.end());
    problem.sets.push_back(std::move(members));
    if (tie_free) {
      // Distinct powers of two on top of a unit base: every subset has a
      // unique total weight, so the optimum support is unique and the
      // exact solvers must agree set-for-set, not just in weight.
      problem.weights.push_back(1.0 + std::ldexp(1.0, -static_cast<int>(s) - 2));
    } else if (seed % 2 == 0) {
      problem.weights.push_back(1.0 + static_cast<double>(rng.uniform_index(3)));
    }  // else unit weights (ties everywhere)
  }
  return problem;
}

TEST(SolverDifferential, GreedyMatchesReferenceExactly) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto problem = random_problem(seed, 30, 40, /*tie_free=*/false);
    EXPECT_EQ(solve_greedy(problem), reference::solve_greedy(problem));
  }
}

TEST(SolverDifferential, LocalSearchMatchesReferenceExactly) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto problem = random_problem(seed, 30, 40, /*tie_free=*/false);
    EXPECT_EQ(solve_local_search(problem), reference::solve_local_search(problem));
  }
}

TEST(SolverDifferential, ExactMatchesReferenceWeight) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto problem = random_problem(seed, 14, 16, /*tie_free=*/false);
    const double bitset_weight = packing_weight(problem, solve_exact(problem));
    const double legacy_weight = packing_weight(problem, reference::solve_exact(problem));
    EXPECT_NEAR(bitset_weight, legacy_weight, 1e-9);
  }
}

TEST(SolverDifferential, ExactMatchesReferencePackingOnTieFreeInstances) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto problem = random_problem(seed, 14, 16, /*tie_free=*/true);
    Packing legacy = reference::solve_exact(problem);
    std::sort(legacy.begin(), legacy.end());
    EXPECT_EQ(solve_exact(problem), legacy);  // new solver returns sorted
  }
}

TEST(SolverDifferential, EmptyAndAllConflictingInstances) {
  SetPackingProblem empty;
  EXPECT_TRUE(solve_exact(empty).empty());
  EXPECT_TRUE(solve_greedy(empty).empty());
  EXPECT_TRUE(solve_local_search(empty).empty());

  // Every set contains element 0: any packing holds at most one set.
  SetPackingProblem star;
  star.universe_size = 6;
  for (std::size_t s = 0; s < 5; ++s) star.sets.push_back({0, s + 1});
  EXPECT_EQ(solve_exact(star).size(), 1u);
  EXPECT_EQ(solve_greedy(star), reference::solve_greedy(star));
  EXPECT_EQ(solve_local_search(star), reference::solve_local_search(star));
}

TEST(SolverProperty, ExactGeqLocalSearchGeqGreedy) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto problem = random_problem(seed, 44, 44, /*tie_free=*/false);
    const double exact = packing_weight(problem, solve_exact(problem));
    const double local = packing_weight(problem, solve_local_search(problem));
    const double greedy = packing_weight(problem, solve_greedy(problem));
    EXPECT_GE(exact + 1e-9, local);
    EXPECT_GE(local + 1e-9, greedy);
  }
}

TEST(Exact, HandlesThousandsOfLocalizedSets) {
  // The practical regime the component decomposition unlocks: many sets,
  // each confined to a small neighbourhood of the universe (share groups
  // are spatially local), far past the old 30-set guard.
  Rng rng(91);
  SetPackingProblem problem;
  const std::size_t blocks = 1500;
  problem.universe_size = blocks * 4;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t base = b * 4;
    for (int s = 0; s < 8; ++s) {
      std::size_t i = base + rng.uniform_index(4);
      std::size_t j = base + rng.uniform_index(4);
      while (j == i) j = base + rng.uniform_index(4);
      std::vector<std::size_t> members{std::min(i, j), std::max(i, j)};
      members.erase(std::unique(members.begin(), members.end()), members.end());
      if (members.size() == 2) problem.sets.push_back(std::move(members));
    }
  }
  ASSERT_GT(problem.sets.size(), 10'000u);
  const Packing exact = solve_exact(problem, /*max_sets=*/20'000);
  EXPECT_TRUE(is_valid_packing(problem, exact));
  EXPECT_GE(packing_weight(problem, exact) + 1e-9,
            packing_weight(problem, solve_local_search(problem)));
}

}  // namespace
}  // namespace o2o::packing

// ---------------------------------------------------------------------------
// Full Algorithm 3 differential: the parallel engine must leave the
// dispatcher's matchings untouched.

namespace o2o::core {
namespace {

const geo::EuclideanOracle kDispatchOracle;

trace::Taxi make_taxi(trace::TaxiId id, geo::Point location, int seats = 4) {
  trace::Taxi taxi;
  taxi.id = id;
  taxi.location = location;
  taxi.seats = seats;
  return taxi;
}

/// The Euclidean oracle declaring no concurrent queries: every consumer
/// gated on Capabilities::concurrent_queries (the exact group evaluations,
/// the profile build) then runs serially on the calling thread, with the
/// same arithmetic.
class SerialOnlyOracle final : public geo::DistanceOracle {
 public:
  double distance(const geo::Point& a, const geo::Point& b) const override {
    return kDispatchOracle.distance(a, b);
  }
  void distances_from_into(const geo::Point& source, std::span<const geo::Point> targets,
                           double* out) const override {
    kDispatchOracle.distances_from_into(source, targets, out);
  }
  void distances_to_into(std::span<const geo::Point> sources, const geo::Point& target,
                         double* out) const override {
    kDispatchOracle.distances_to_into(sources, target, out);
  }
  Capabilities capabilities() const noexcept override {
    return {.concurrent_queries = false, .symmetric_distances = true};
  }
};

TEST(DispatchDifferential, ParallelGroupingKeepsMatchingsIdentical) {
  const SerialOnlyOracle serial_oracle;
  for (const std::uint64_t seed : {5u, 6u}) {
    Rng rng(seed);
    std::vector<trace::Request> requests;
    for (int i = 0; i < 30; ++i) {
      const geo::Point pickup{rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0)};
      requests.push_back(trace::Request{});
      requests.back().id = i;
      requests.back().pickup = pickup;
      requests.back().dropoff = {pickup.x + rng.uniform(-3.0, 3.0),
                                 pickup.y + rng.uniform(-3.0, 3.0)};
      requests.back().seats = 1;
    }
    std::vector<trace::Taxi> taxis;
    for (int t = 0; t < 20; ++t) {
      taxis.push_back(make_taxi(t, {rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0)}));
    }

    SharingParams params;
    params.grouping.detour_threshold_km = 3.0;
    const SharingOutcome parallel =
        dispatch_sharing(taxis, requests, kDispatchOracle, params);
    const SharingOutcome serial = dispatch_sharing(taxis, requests, serial_oracle, params);

    EXPECT_EQ(parallel.feasible_groups, serial.feasible_groups);
    EXPECT_EQ(parallel.packed_groups, serial.packed_groups);
    EXPECT_EQ(parallel.unserved_request_indices, serial.unserved_request_indices);
    ASSERT_EQ(parallel.assignments.size(), serial.assignments.size());
    for (std::size_t a = 0; a < parallel.assignments.size(); ++a) {
      EXPECT_EQ(parallel.assignments[a].taxi_index, serial.assignments[a].taxi_index);
      EXPECT_EQ(parallel.assignments[a].request_indices,
                serial.assignments[a].request_indices);
      EXPECT_EQ(parallel.assignments[a].passenger_score,
                serial.assignments[a].passenger_score);
      EXPECT_EQ(parallel.assignments[a].taxi_score, serial.assignments[a].taxi_score);
    }
  }
}

TEST(ExactFallback, OversizedFrameDegradesToLocalSearch) {
  // A corridor of overlapping trips: plenty of feasible groups.
  std::vector<trace::Request> requests;
  for (int i = 0; i < 12; ++i) {
    const double off = 0.1 * static_cast<double>(i);
    requests.push_back(trace::Request{});
    requests.back().id = i;
    requests.back().pickup = {off, 0.0};
    requests.back().dropoff = {off + 6.0, 0.0};
    requests.back().seats = 1;
  }
  SharingParams params;
  params.grouping.detour_threshold_km = 5.0;
  params.packing = PackingSolver::kExact;
  params.exact_max_sets = 1;  // force the degradation path
  const SharingUnits units = pack_requests(requests, kDispatchOracle, params);
  EXPECT_GT(units.feasible_groups, 1u);
  EXPECT_EQ(units.exact_fallbacks, 1u);
  EXPECT_GT(units.packed_groups, 0u);

  // And the dispatcher surfaces the counter.
  std::vector<trace::Taxi> taxis;
  for (int t = 0; t < 12; ++t) taxis.push_back(make_taxi(t, {0.5 * t, 1.0}));
  const SharingOutcome outcome = dispatch_sharing(taxis, requests, kDispatchOracle, params);
  EXPECT_EQ(outcome.exact_fallbacks, 1u);
}

TEST(UnitDirects, AlignWithSortedMembersAndMatchOracle) {
  Rng rng(77);
  std::vector<trace::Request> requests;
  for (int i = 0; i < 16; ++i) {
    const geo::Point pickup{rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)};
    requests.push_back(trace::Request{});
    requests.back().id = i;
    requests.back().pickup = pickup;
    requests.back().dropoff = {pickup.x + rng.uniform(1.0, 3.0),
                               pickup.y + rng.uniform(1.0, 3.0)};
    requests.back().seats = 1;
  }
  SharingParams params;
  params.grouping.detour_threshold_km = 4.0;
  const SharingUnits units = pack_requests(requests, kDispatchOracle, params);
  ASSERT_EQ(units.unit_direct_km.size(), units.units.size());
  for (std::size_t u = 0; u < units.units.size(); ++u) {
    ASSERT_EQ(units.unit_direct_km[u].size(), units.units[u].size());
    for (std::size_t m = 0; m < units.units[u].size(); ++m) {
      const trace::Request& rider = requests[units.units[u][m]];
      EXPECT_EQ(units.unit_direct_km[u][m],
                kDispatchOracle.distance(rider.pickup, rider.dropoff));
    }
  }
}

}  // namespace
}  // namespace o2o::core
