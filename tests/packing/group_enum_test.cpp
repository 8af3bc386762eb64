// The group-enumeration pipeline's dedicated suite: the conservative
// SIMD / cone kernels must keep every exactly-feasible pair (rejection
// is a proof), the GroupCache must replay the last output's all-clean
// groups verbatim and resolve everything churn touched fresh, and the
// engine -- uncached, cache-cold and cache-warm, on every oracle -- must
// reproduce the dense serial scan (tests/reference) bit for bit,
// including at θ and radius boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "core/sharing.h"
#include "geo/road_network.h"
#include "obs/obs.h"
#include "packing/group_enum.h"
#include "packing/groups.h"
#include "tests/reference/groups.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

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

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Bit-for-bit record equality: same members, same order, same doubles.
void expect_groups_equal(const std::vector<ShareGroup>& actual,
                         const std::vector<ShareGroup>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t g = 0; g < actual.size(); ++g) {
    EXPECT_EQ(actual[g].member_indices, expected[g].member_indices);
    EXPECT_EQ(actual[g].pooled_length_km, expected[g].pooled_length_km);
    EXPECT_EQ(actual[g].direct_sum_km, expected[g].direct_sum_km);
    EXPECT_EQ(actual[g].max_detour_km, expected[g].max_detour_km);
    EXPECT_EQ(actual[g].member_direct_km, expected[g].member_direct_km);
  }
}

/// The pooled route evaluate_group hands back for `group`'s members must
/// price, pointwise, to the group's recorded length and worst detour
/// bit for bit.
routing::Route expect_route_prices_group(const ShareGroup& group,
                                         const std::vector<trace::Request>& requests,
                                         const geo::DistanceOracle& oracle,
                                         const GroupOptions& options) {
  routing::Route route;
  bool feasible = false;
  evaluate_group(requests, group.member_indices, oracle, options, 4, feasible, &route);
  EXPECT_TRUE(feasible);
  EXPECT_EQ(bits(routing::route_length(route, oracle)), bits(group.pooled_length_km));
  double max_detour = 0.0;
  for (std::size_t m = 0; m < group.member_indices.size(); ++m) {
    const trace::Request& rider = requests[group.member_indices[m]];
    max_detour = std::max(max_detour, routing::rider_metrics(route, rider.id, oracle).ride_km -
                                          group.member_direct_km[m]);
  }
  EXPECT_EQ(bits(max_detour), bits(group.max_detour_km));
  return route;
}

/// The dense serial scan of one frame, with each group's pooled route.
struct SerialScan {
  std::vector<ShareGroup> groups;
  std::vector<routing::Route> routes;  ///< aligned with groups
};

SerialScan serial_scan(const std::vector<trace::Request>& requests,
                       const geo::DistanceOracle& oracle, const GroupOptions& options) {
  SerialScan scan;
  scan.groups = reference::enumerate_serial(requests, oracle, options, 4, &scan.routes);
  return scan;
}

/// Engine output against the serial scan: records bit for bit, and the
/// route evaluate_group returns for each engine group equals the
/// reference's route and prices to the engine's record.
void expect_matches_serial(const std::vector<ShareGroup>& actual, const SerialScan& serial,
                           const std::vector<trace::Request>& requests,
                           const geo::DistanceOracle& oracle, const GroupOptions& options) {
  expect_groups_equal(actual, serial.groups);
  ASSERT_EQ(serial.routes.size(), serial.groups.size());
  for (std::size_t g = 0; g < actual.size() && g < serial.routes.size(); ++g) {
    expect_routes_equal(expect_route_prices_group(actual[g], requests, oracle, options),
                        serial.routes[g]);
  }
}

void expect_matches_serial(const std::vector<ShareGroup>& actual,
                           const std::vector<trace::Request>& requests,
                           const geo::DistanceOracle& oracle, const GroupOptions& options) {
  expect_matches_serial(actual, serial_scan(requests, oracle, options), requests, oracle,
                        options);
}

/// Runs the engine without a cache, then a cold and a warm cached pass,
/// each compared bit-for-bit against the dense serial scan of the same
/// frame.
void expect_engine_matches_reference(const std::vector<trace::Request>& requests,
                                     const geo::DistanceOracle& oracle,
                                     const GroupOptions& options) {
  const SerialScan serial = serial_scan(requests, oracle, options);
  {
    SCOPED_TRACE("no cache");
    expect_matches_serial(enumerate_share_groups(requests, oracle, options), serial, requests,
                          oracle, options);
  }
  GroupCache cache;
  {
    SCOPED_TRACE("cold cache");
    expect_matches_serial(enumerate_share_groups(requests, oracle, options, 4, &cache), serial,
                          requests, oracle, options);
  }
  {
    SCOPED_TRACE("warm cache");
    expect_matches_serial(enumerate_share_groups(requests, oracle, options, 4, &cache), serial,
                          requests, oracle, options);
  }
}

// ---------------------------------------------------------------------------
// SIMD pair certificate: conservative with respect to the exact scan.

struct PairLegsStorage {
  std::vector<double> a, a2, b, b2, c, c2, di, dj;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;

  simd::PairLegsSoA view() const {
    return {a.data(), a2.data(), b.data(),  b2.data(),
            c.data(), c2.data(), di.data(), dj.data()};
  }
};

PairLegsStorage gather_all_pair_legs(const std::vector<trace::Request>& requests,
                                     const geo::DistanceOracle& oracle) {
  PairLegsStorage legs;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    for (std::size_t j = i + 1; j < requests.size(); ++j) {
      const trace::Request& ri = requests[i];
      const trace::Request& rj = requests[j];
      legs.a.push_back(oracle.distance(ri.pickup, rj.pickup));
      legs.a2.push_back(oracle.distance(rj.pickup, ri.pickup));
      legs.b.push_back(oracle.distance(rj.pickup, ri.dropoff));
      legs.b2.push_back(oracle.distance(ri.pickup, rj.dropoff));
      legs.c.push_back(oracle.distance(ri.dropoff, rj.dropoff));
      legs.c2.push_back(oracle.distance(rj.dropoff, ri.dropoff));
      legs.di.push_back(oracle.distance(ri.pickup, ri.dropoff));
      legs.dj.push_back(oracle.distance(rj.pickup, rj.dropoff));
      legs.pairs.emplace_back(i, j);
    }
  }
  return legs;
}

std::set<std::pair<std::size_t, std::size_t>> exact_feasible_pairs(
    const std::vector<trace::Request>& requests, const geo::DistanceOracle& oracle,
    double theta) {
  GroupOptions options;
  options.detour_threshold_km = theta;
  options.max_group_size = 2;
  std::set<std::pair<std::size_t, std::size_t>> feasible;
  for (const ShareGroup& group : reference::enumerate_serial(requests, oracle, options)) {
    feasible.emplace(group.member_indices[0], group.member_indices[1]);
  }
  return feasible;
}

TEST(SimdKernel, BackendResolvesToOneName) {
  const simd::Backend backend = simd::active_backend();
  EXPECT_FALSE(simd::backend_name(backend).empty());
#if defined(O2O_SIMD_SCALAR_ONLY)
  EXPECT_EQ(backend, simd::Backend::kScalar);
#endif
  EXPECT_EQ(simd::batch_count(0), 0u);
  EXPECT_EQ(simd::batch_count(1), 1u);
  EXPECT_EQ(simd::batch_count(8), 1u);
  EXPECT_EQ(simd::batch_count(9), 2u);
}

TEST(SimdKernel, CertificateKeepsEveryExactlyFeasiblePair) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    const auto requests = make_city_requests(40, seed, 12.0);
    const double theta = 3.0;
    const auto feasible = exact_feasible_pairs(requests, kOracle, theta);
    ASSERT_FALSE(feasible.empty());

    const PairLegsStorage legs = gather_all_pair_legs(requests, kOracle);
    std::vector<std::uint8_t> keep(legs.pairs.size(), 0);
    simd::pair_filter(legs.view(), legs.pairs.size(), theta, kFilterPadKm, keep.data());
    for (std::size_t k = 0; k < legs.pairs.size(); ++k) {
      if (feasible.count(legs.pairs[k]) != 0) {
        EXPECT_EQ(keep[k], 1) << "feasible pair (" << legs.pairs[k].first << ", "
                              << legs.pairs[k].second << ") rejected by the certificate";
      }
    }
  }
}

TEST(SimdKernel, RejectsFarApartAndOppositePairs) {
  // Far apart: no order can come close to saving.
  std::vector<trace::Request> far{make_request(0, {0.0, 0.0}, {2.0, 0.0}),
                                  make_request(1, {100.0, 0.0}, {102.0, 0.0})};
  PairLegsStorage legs = gather_all_pair_legs(far, kOracle);
  std::vector<std::uint8_t> keep(1, 1);
  EXPECT_EQ(simd::pair_filter(legs.view(), 1, 5.0, kFilterPadKm, keep.data()), 0u);
  EXPECT_EQ(keep[0], 0);

  // Offset head-on trips: every interleaved order backtracks at least
  // 2 km past the direct sum, so no saving exists even with an infinite
  // θ. (An exactly mirrored pair would sit *on* the saving boundary,
  // which the conservative filter keeps by design.)
  std::vector<trace::Request> opposite{make_request(0, {0.0, 0.0}, {5.0, 0.0}),
                                       make_request(1, {7.0, 0.0}, {2.0, 0.0})};
  legs = gather_all_pair_legs(opposite, kOracle);
  keep.assign(1, 1);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(simd::pair_filter(legs.view(), 1, inf, kFilterPadKm, keep.data()), 0u);
  EXPECT_EQ(keep[0], 0);

  // Same-direction overlap: order p0 p1 d0 d1 saves 3 km; must be kept.
  std::vector<trace::Request> overlap{make_request(0, {0.0, 0.0}, {4.0, 0.0}),
                                      make_request(1, {1.0, 0.0}, {5.0, 0.0})};
  legs = gather_all_pair_legs(overlap, kOracle);
  keep.assign(1, 0);
  EXPECT_EQ(simd::pair_filter(legs.view(), 1, inf, kFilterPadKm, keep.data()), 1u);
  EXPECT_EQ(keep[0], 1);
}

TEST(ConeKernel, EllipseKeepsEveryExactlyFeasiblePair) {
  for (const std::uint64_t seed : {11u, 12u}) {
    const auto requests = make_city_requests(40, seed, 12.0);
    const double theta = 3.0;
    const auto feasible = exact_feasible_pairs(requests, kOracle, theta);
    ASSERT_FALSE(feasible.empty());

    std::vector<double> pix, piy, dix, diy, pjx, pjy, djx, djy, bi, bj;
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      for (std::size_t j = i + 1; j < requests.size(); ++j) {
        pix.push_back(requests[i].pickup.x);
        piy.push_back(requests[i].pickup.y);
        dix.push_back(requests[i].dropoff.x);
        diy.push_back(requests[i].dropoff.y);
        pjx.push_back(requests[j].pickup.x);
        pjy.push_back(requests[j].pickup.y);
        djx.push_back(requests[j].dropoff.x);
        djy.push_back(requests[j].dropoff.y);
        bi.push_back(kOracle.distance(requests[i].pickup, requests[i].dropoff) + theta);
        bj.push_back(kOracle.distance(requests[j].pickup, requests[j].dropoff) + theta);
        pairs.emplace_back(i, j);
      }
    }
    const simd::ConeSoA soa{pix.data(), piy.data(), dix.data(), diy.data(),
                            pjx.data(), pjy.data(), djx.data(), djy.data(),
                            bi.data(),  bj.data()};
    std::vector<std::uint8_t> keep(pairs.size(), 0);
    simd::cone_filter(soa, pairs.size(), kFilterPadKm, keep.data());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      if (feasible.count(pairs[k]) != 0) {
        EXPECT_EQ(keep[k], 1) << "feasible pair (" << pairs[k].first << ", "
                              << pairs[k].second << ") rejected by the cone";
      }
    }
  }
}

TEST(ConeKernel, PrunePreservesKeyOrder) {
  const auto requests = make_city_requests(32, 13, 14.0);
  const double theta = 2.0;
  std::vector<double> direct(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    direct[i] = kOracle.distance(requests[i].pickup, requests[i].dropoff);
  }
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    for (std::size_t j = i + 1; j < requests.size(); ++j) {
      keys.push_back((static_cast<std::uint64_t>(i) << 32) | j);
    }
  }
  const std::vector<std::uint64_t> before = keys;
  const FilterStats stats = cone_prune_pairs(requests, direct, theta, keys);
  EXPECT_EQ(stats.kept, keys.size());
  EXPECT_EQ(stats.kept + stats.rejected, before.size());
  EXPECT_GT(stats.rejected, 0u);  // a spread city always has diverging pairs
  // Survivors are a subsequence of the input (order preserved).
  std::size_t cursor = 0;
  for (const std::uint64_t key : keys) {
    while (cursor < before.size() && before[cursor] != key) ++cursor;
    ASSERT_LT(cursor, before.size());
    ++cursor;
  }
}

// ---------------------------------------------------------------------------
// Engine x oracle differentials (uncached, cache-cold, cache-warm). The
// suite keeps its historical name from when it also crossed the engine's
// former on/off switches.

TEST(KnobMatrix, EuclideanOracleMatchesSerial) {
  GroupOptions options;
  options.detour_threshold_km = 3.0;
  for (const std::uint64_t seed : {17u, 18u}) {
    expect_engine_matches_reference(make_city_requests(48, seed, 14.0), kOracle, options);
  }
}

TEST(KnobMatrix, ManhattanOracleMatchesSerial) {
  const geo::ManhattanOracle oracle;
  GroupOptions options;
  options.detour_threshold_km = 3.0;
  expect_engine_matches_reference(make_city_requests(44, 19, 13.0), oracle, options);
}

TEST(KnobMatrix, CircuityOracleMatchesSerial) {
  const geo::CircuityOracle oracle(1.3);
  GroupOptions options;
  options.detour_threshold_km = 3.0;
  expect_engine_matches_reference(make_city_requests(44, 21, 13.0), oracle, options);
}

TEST(KnobMatrix, NetworkOracleMatchesSerial) {
  // Asymmetric oracle: the leg gather must take the reverse-row path.
  const geo::RoadNetwork city = geo::RoadNetwork::make_grid_city(10, 10, 1.0, 0.15, 0.1, 7);
  const geo::NetworkOracle oracle(city);
  ASSERT_FALSE(oracle.capabilities().symmetric_distances);
  Rng rng(23);
  std::vector<trace::Request> requests;
  for (int i = 0; i < 32; ++i) {
    const geo::Point pickup{rng.uniform(0.5, 8.5), rng.uniform(0.5, 8.5)};
    const geo::Point dropoff{rng.uniform(0.5, 8.5), rng.uniform(0.5, 8.5)};
    requests.push_back(make_request(i, pickup, dropoff));
  }
  GroupOptions options;
  options.detour_threshold_km = 2.5;
  expect_engine_matches_reference(requests, oracle, options);
}

TEST(KnobMatrix, NoSavingConstraintDisablesSimdAndCone) {
  // require_saving = false voids both conservative filters' premises;
  // the engine must gate them off and still match the serial scan.
  GroupOptions options;
  options.detour_threshold_km = 2.0;
  options.require_saving = false;
  options.pickup_radius_km = 3.0;
  expect_engine_matches_reference(make_city_requests(36, 25, 10.0), kOracle, options);
}

TEST(KnobMatrix, TriplesAndSeatLimitsMatchSerial) {
  GroupOptions options;
  options.detour_threshold_km = 4.0;
  const auto requests = make_city_requests(36, 27, 8.0);  // dense: triples exist
  expect_engine_matches_reference(requests, kOracle, options);
}

// ---------------------------------------------------------------------------
// θ and radius boundaries.

TEST(ThetaBoundary, ZeroThetaStillPoolsZeroDetourPairs) {
  // Identical trips pool with zero detour and positive saving, so θ = 0
  // keeps exactly those; the engine must agree on every path.
  std::vector<trace::Request> requests;
  requests.push_back(make_request(0, {0.0, 0.0}, {3.0, 0.0}));
  requests.push_back(make_request(1, {0.0, 0.0}, {3.0, 0.0}));
  requests.push_back(make_request(2, {10.0, 10.0}, {12.0, 10.0}));
  requests.push_back(make_request(3, {5.0, 5.0}, {5.0, 8.0}));
  GroupOptions options;
  options.detour_threshold_km = 0.0;
  const auto serial = reference::enumerate_serial(requests, kOracle, options);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(serial[0].member_indices, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(serial[0].max_detour_km, 0.0);
  expect_engine_matches_reference(requests, kOracle, options);
}

TEST(ThetaBoundary, DetourExactlyAtThetaIsFeasibleOnEveryPath) {
  // Pin θ to a realized max detour: the witness group sits exactly on
  // the boundary (the check is `detour > θ`, so equality is feasible)
  // and every engine path must keep it.
  const auto requests = make_city_requests(40, 29, 10.0);
  GroupOptions wide;
  wide.detour_threshold_km = 6.0;
  wide.max_group_size = 2;
  double theta = 0.0;
  for (const ShareGroup& group : reference::enumerate_serial(requests, kOracle, wide)) {
    theta = std::max(theta, group.max_detour_km);
  }
  ASSERT_GT(theta, 0.0);

  GroupOptions edge;
  edge.detour_threshold_km = theta;
  edge.max_group_size = 2;
  const auto at_edge = reference::enumerate_serial(requests, kOracle, edge);
  EXPECT_TRUE(std::any_of(at_edge.begin(), at_edge.end(), [&](const ShareGroup& g) {
    return g.max_detour_km == theta;
  }));
  expect_engine_matches_reference(requests, kOracle, edge);

  // One ulp below the witness detour: still bit-identical everywhere,
  // and nothing exceeds the tightened bound.
  GroupOptions below = edge;
  below.detour_threshold_km = std::nextafter(theta, 0.0);
  const auto under = reference::enumerate_serial(requests, kOracle, below);
  for (const ShareGroup& group : under) {
    EXPECT_LE(group.max_detour_km, below.detour_threshold_km);
  }
  expect_engine_matches_reference(requests, kOracle, below);
}

TEST(RadiusBoundary, PickupRadiusTieMatchesSerial) {
  // Pick-ups exactly pickup_radius_km apart sit on the grid prefilter's
  // boundary; the accelerated paths must agree with the serial scan on
  // which side of it every pair lands.
  std::vector<trace::Request> requests;
  requests.push_back(make_request(0, {0.0, 0.0}, {5.0, 0.0}));
  requests.push_back(make_request(1, {2.0, 0.0}, {7.0, 0.0}));  // exactly 2 km away
  requests.push_back(make_request(2, {4.0, 0.0}, {9.0, 0.0}));  // exactly 2 km from 1
  auto extra = make_city_requests(24, 33, 9.0);
  for (auto& request : extra) {
    request.id += 10;
    requests.push_back(request);
  }
  GroupOptions options;
  options.detour_threshold_km = 5.0;
  options.pickup_radius_km = 2.0;
  expect_engine_matches_reference(requests, kOracle, options);
}

// ---------------------------------------------------------------------------
// Cross-frame persistence under churn.

TEST(CrossFrameCache, PerturbedFramesStayBitIdentical) {
  auto requests = make_city_requests(56, 35, 14.0);
  GroupOptions options;
  options.detour_threshold_km = 3.0;
  GroupCache cache;
  Rng rng(99);
  trace::RequestId next_id = 1000;
  for (int frame = 0; frame < 5; ++frame) {
    SCOPED_TRACE(::testing::Message() << "frame=" << frame);
    const auto cached = enumerate_share_groups(requests, kOracle, options, 4, &cache);
    expect_matches_serial(cached, requests, kOracle, options);

    // ~15% churn preserving survivor order (the simulator's FIFO shape):
    // drop some riders, edit one in place, append fresh arrivals.
    std::vector<trace::Request> next;
    for (const trace::Request& request : requests) {
      if (rng.uniform(0.0, 1.0) >= 0.15) next.push_back(request);
    }
    if (!next.empty()) next.front().pickup.x += 0.05;
    for (int added = 0; added < 8; ++added) {
      const geo::Point pickup{rng.uniform(0.0, 14.0), rng.uniform(0.0, 14.0)};
      next.push_back(make_request(next_id++, pickup,
                                  {pickup.x + rng.uniform(-3.0, 3.0),
                                   pickup.y + rng.uniform(-3.0, 3.0)}));
    }
    requests = std::move(next);
  }
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().stores, 0u);
}

// ---------------------------------------------------------------------------
// Candidate persistence: warm frames replay persisted neighbor lists and
// must stay bit-identical to the dense serial scan at every churn rate.

/// One simulator-shaped churn step: drop ~rate of the riders (order
/// preserved), nudge one survivor's pickup in place, append arrivals.
std::vector<trace::Request> churn_step(const std::vector<trace::Request>& requests,
                                       double rate, double extent_km, Rng& rng,
                                       trace::RequestId& next_id) {
  std::vector<trace::Request> next;
  for (const trace::Request& request : requests) {
    if (rng.uniform(0.0, 1.0) >= rate) next.push_back(request);
  }
  if (!next.empty()) next.front().pickup.x += 0.05;
  const int arrivals = std::max(1, static_cast<int>(rate * static_cast<double>(requests.size())));
  for (int added = 0; added < arrivals; ++added) {
    const geo::Point pickup{rng.uniform(0.0, extent_km), rng.uniform(0.0, extent_km)};
    next.push_back(make_request(next_id++, pickup,
                                {pickup.x + rng.uniform(-3.0, 3.0),
                                 pickup.y + rng.uniform(-3.0, 3.0)}));
  }
  return next;
}

TEST(CandidatePersistence, ChurnRatesStayBitIdentical) {
  for (const double rate : {0.02, 0.15, 0.5}) {
    SCOPED_TRACE(::testing::Message() << "churn=" << rate);
    auto requests = make_city_requests(64, 41, 14.0);
    GroupOptions options;
    options.detour_threshold_km = 3.0;
    GroupCache cache;
    Rng rng(107);
    trace::RequestId next_id = 2000;
    for (int frame = 0; frame < 6; ++frame) {
      SCOPED_TRACE(::testing::Message() << "frame=" << frame);
      const auto persisted = enumerate_share_groups(requests, kOracle, options, 4, &cache);
      expect_matches_serial(persisted, requests, kOracle, options);
      requests = churn_step(requests, rate, 14.0, rng, next_id);
    }
  }
}

TEST(CandidatePersistence, WarmFramesActuallyReuseLists) {
  obs::TraceSink sink;
  obs::Activation guard(sink);
  auto requests = make_city_requests(72, 43, 15.0);
  GroupOptions options;
  options.detour_threshold_km = 3.0;
  GroupCache cache;
  Rng rng(111);
  trace::RequestId next_id = 3000;
  const auto counter = [](const obs::FrameTrace& frame, obs::Counter which) {
    return frame.counters[static_cast<std::size_t>(which)];
  };
  sink.begin_frame(0, 0.0);
  enumerate_share_groups(requests, kOracle, options, 4, &cache);
  const obs::FrameTrace cold = sink.end_frame();
  EXPECT_EQ(counter(cold, obs::Counter::kCandidatesReused), 0u);
  requests = churn_step(requests, 0.05, 15.0, rng, next_id);
  sink.begin_frame(1, 60.0);
  enumerate_share_groups(requests, kOracle, options, 4, &cache);
  const obs::FrameTrace hot = sink.end_frame();
  EXPECT_GT(counter(hot, obs::Counter::kCandidatesReused), 0u);
  EXPECT_GT(counter(hot, obs::Counter::kGridPatches), 0u);
}

TEST(CandidatePersistence, RadiusChangesStaySound) {
  // Persisted lists are keyed to one pickup radius; changing it
  // mid-stream must still reproduce the serial scan of every frame.
  auto requests = make_city_requests(56, 47, 13.0);
  GroupOptions options;
  options.detour_threshold_km = 3.0;
  GroupCache cache;
  Rng rng(113);
  trace::RequestId next_id = 4000;
  const double radii[] = {std::numeric_limits<double>::infinity(), 4.0, 4.0, 2.5, 2.5, 4.0};
  for (int frame = 0; frame < 6; ++frame) {
    SCOPED_TRACE(::testing::Message() << "frame=" << frame);
    options.pickup_radius_km = radii[frame];
    const auto persisted = enumerate_share_groups(requests, kOracle, options, 4, &cache);
    expect_matches_serial(persisted, requests, kOracle, options);
    requests = churn_step(requests, 0.1, 13.0, rng, next_id);
  }
}

TEST(CandidatePersistence, AbsentThenReturningIdReenumeratesFresh) {
  // An id that skips a frame breaks its cand_epoch chain and must come
  // back as churn, not replay a stale list.
  auto requests = make_city_requests(24, 53, 8.0);
  GroupOptions options;
  options.detour_threshold_km = 3.0;
  GroupCache cache;
  const auto compare = [&](const std::vector<trace::Request>& frame) {
    const auto persisted = enumerate_share_groups(frame, kOracle, options, 4, &cache);
    expect_matches_serial(persisted, frame, kOracle, options);
  };
  compare(requests);
  auto without = requests;
  without.erase(without.begin() + 3);
  compare(without);
  // The absent rider returns with a different pickup under the same id.
  requests[3].pickup.x += 1.0;
  compare(requests);
  compare(requests);
}

// ---------------------------------------------------------------------------
// GroupCache replay: engine-level cross-frame behaviour. Every frame is
// checked against the dense serial scan of the same requests.

GroupOptions cache_options() {
  GroupOptions options;
  options.detour_threshold_km = 3.0;
  return options;
}

/// One cached enumeration, checked against the serial scan; the cache
/// must then hold exactly this frame's output.
std::vector<ShareGroup> cached_frame(const std::vector<trace::Request>& requests,
                                     const GroupOptions& options, GroupCache& cache,
                                     const geo::DistanceOracle& oracle = kOracle) {
  auto groups = enumerate_share_groups(requests, oracle, options, 4, &cache);
  expect_matches_serial(groups, requests, oracle, options);
  EXPECT_EQ(cache.size(), groups.size());
  return groups;
}

bool contains_member(const ShareGroup& group, std::size_t index) {
  return std::find(group.member_indices.begin(), group.member_indices.end(), index) !=
         group.member_indices.end();
}

TEST(GroupCacheTest, ReplaysStoredVerdictsBitForBit) {
  const auto requests = make_city_requests(24, 3, 6.0);
  const GroupOptions options = cache_options();
  GroupCache cache;
  const auto cold = cached_frame(requests, options, cache);
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(cache.stats().hits, 0u);
  const std::uint64_t cold_stores = cache.stats().stores;
  EXPECT_GT(cold_stores, 0u);

  // Nothing changed: every group replays, nothing is evaluated.
  const auto warm = cached_frame(requests, options, cache);
  expect_groups_equal(warm, cold);
  EXPECT_EQ(cache.stats().hits, cold.size());
  EXPECT_EQ(cache.stats().stores, cold_stores);
}

TEST(GroupCacheTest, InfeasibleVerdictsReplayWithoutPayload) {
  // Two trips that can never pool: the cold frame evaluates the pair and
  // keeps no record; its absence is the verdict the warm frame reuses.
  // (Three seats each cannot share a four-seat taxi.)
  std::vector<trace::Request> requests{make_request(0, {0.0, 0.0}, {2.0, 0.0}, 3),
                                       make_request(1, {0.5, 0.0}, {2.5, 0.0}, 3),
                                       make_request(2, {50.0, 0.0}, {52.0, 0.0})};
  GroupOptions options = cache_options();
  options.require_saving = false;  // no filter may settle the pair first
  options.pickup_radius_km = 1.0;
  GroupCache cache;
  EXPECT_TRUE(cached_frame(requests, options, cache).empty());
  EXPECT_EQ(cache.stats().stores, 1u);  // (0, 1): the only pair within the radius
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cached_frame(requests, options, cache).empty());
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(GroupCacheTest, ContentChangeInvalidatesTouchedEntries) {
  auto requests = make_city_requests(24, 5, 6.0);
  const GroupOptions options = cache_options();
  GroupCache cache;
  const auto cold = cached_frame(requests, options, cache);
  ASSERT_TRUE(std::any_of(cold.begin(), cold.end(),
                          [](const ShareGroup& g) { return contains_member(g, 0); }));
  const auto untouched = static_cast<std::uint64_t>(std::count_if(
      cold.begin(), cold.end(), [](const ShareGroup& g) { return !contains_member(g, 0); }));

  requests[0].pickup.x += 0.25;  // edit rider 0: its groups are churn
  const std::uint64_t hits_before = cache.stats().hits;
  cached_frame(requests, options, cache);
  EXPECT_EQ(cache.stats().hits - hits_before, untouched);
}

TEST(GroupCacheTest, FingerprintChangeFlushesEverything) {
  const auto requests = make_city_requests(24, 7, 6.0);
  GroupOptions options = cache_options();
  GroupCache cache;
  ASSERT_FALSE(cached_frame(requests, options, cache).empty());

  options.detour_threshold_km = 4.5;  // θ enters the fingerprint
  cached_frame(requests, options, cache);
  EXPECT_EQ(cache.stats().flushes, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(GroupCacheTest, KeyIsOrderSensitive) {
  // Two persisting requests swap relative order: optimal_route breaks
  // ties by rider order, so one of them must resolve fresh.
  auto requests = make_city_requests(24, 9, 6.0);
  const GroupOptions options = cache_options();
  GroupCache cache;
  const auto cold = cached_frame(requests, options, cache);
  std::swap(requests[2], requests[5]);
  const std::uint64_t stores_before = cache.stats().stores;
  cached_frame(requests, options, cache);
  EXPECT_GT(cache.stats().stores, stores_before);
  EXPECT_LT(cache.stats().hits, cold.size());

  // Identical twins swapped: equal content under different ids.
  std::vector<trace::Request> twins{make_request(0, {0.0, 0.0}, {3.0, 0.0}),
                                    make_request(1, {0.0, 0.0}, {3.0, 0.0}),
                                    make_request(2, {0.2, 0.1}, {3.1, 0.2})};
  GroupCache twin_cache;
  cached_frame(twins, options, twin_cache);
  std::swap(twins[0], twins[1]);
  cached_frame(twins, options, twin_cache);
}

TEST(GroupCacheTest, StaleEntriesAreGarbageCollected) {
  // The cache holds the last output only: once a frame with no request
  // in common commits, nothing of the earlier frame survives.
  const GroupOptions options = cache_options();
  GroupCache cache;
  const auto first = cached_frame(make_city_requests(24, 15, 6.0), options, cache);
  ASSERT_FALSE(first.empty());
  auto other = make_city_requests(24, 16, 6.0);
  for (auto& request : other) request.id += 100;
  cached_frame(other, options, cache);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(GroupCacheTest, FullTurnoverHoldsOnlyTheLastOutput) {
  // Sustained full-turnover churn: every frame is brand-new ids, and the
  // cache never holds more than the last frame's groups.
  GroupOptions options;
  options.detour_threshold_km = 50.0;  // dense: every pair evaluated
  options.max_group_size = 2;
  options.require_saving = false;
  options.pickup_radius_km = 1e6;  // finite: the sparse path
  GroupCache cache;
  trace::RequestId next_id = 0;
  for (int frame = 0; frame < 6; ++frame) {
    auto requests = make_city_requests(48, 59 + static_cast<std::uint64_t>(frame), 40.0);
    for (auto& request : requests) request.id = next_id++;
    const auto groups = enumerate_share_groups(requests, kOracle, options, 4, &cache);
    EXPECT_LE(cache.size(), groups.size());
  }
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(Replay, AbsentForOneFrameThenReturningUnchanged) {
  auto requests = make_city_requests(28, 71, 6.0);
  const GroupOptions options = cache_options();
  GroupCache cache;
  cached_frame(requests, options, cache);
  auto without = requests;
  without.erase(without.begin() + 4);
  cached_frame(without, options, cache);
  // Rider 4 returns with the same content: it was not in the last
  // enumeration, so its groups resolve fresh, and the others replay.
  const std::uint64_t stores_before = cache.stats().stores;
  cached_frame(requests, options, cache);
  EXPECT_GT(cache.stats().stores, stores_before);
  cached_frame(requests, options, cache);
}

TEST(Replay, ThetaAndSeatChangesMidStream) {
  auto requests = make_city_requests(32, 73, 6.0);
  GroupCache cache;
  Rng rng(75);
  trace::RequestId next_id = 500;
  const double thetas[] = {3.0, 3.0, 2.0, 2.0, 2.0, 3.0};
  const int seats[] = {4, 4, 4, 2, 2, 3};
  for (int frame = 0; frame < 6; ++frame) {
    SCOPED_TRACE(::testing::Message() << "frame=" << frame);
    GroupOptions options;
    options.detour_threshold_km = thetas[frame];
    const auto groups = enumerate_share_groups(requests, kOracle, options, seats[frame], &cache);
    expect_groups_equal(groups,
                        reference::enumerate_serial(requests, kOracle, options, seats[frame]));
    EXPECT_EQ(cache.size(), groups.size());
    requests = churn_step(requests, 0.1, 6.0, rng, next_id);
  }
  EXPECT_EQ(cache.stats().flushes, 3u);  // frames 2, 3 and 5
}

TEST(Replay, TinyFrameBetweenWarmFrames) {
  auto requests = make_city_requests(28, 77, 6.0);
  const GroupOptions options = cache_options();
  GroupCache cache;
  const auto first = cached_frame(requests, options, cache);
  const std::vector<trace::Request> one{requests[3]};
  EXPECT_TRUE(enumerate_share_groups(one, kOracle, options, 4, &cache).empty());
  EXPECT_TRUE(enumerate_share_groups({}, kOracle, options, 4, &cache).empty());
  // The tiny frames enumerate nothing and leave the last output in place.
  EXPECT_EQ(cache.size(), first.size());
  const std::uint64_t hits_before = cache.stats().hits;
  requests.erase(requests.begin() + 1);
  cached_frame(requests, options, cache);
  EXPECT_GT(cache.stats().hits, hits_before);
}

TEST(Replay, RepeatedIdsFallBackToFreshWork) {
  auto requests = make_city_requests(20, 79, 6.0);
  const GroupOptions options = cache_options();
  GroupCache cache;
  cached_frame(requests, options, cache);
  auto repeated = requests;
  // Two requests under one id, too far apart to share a group.
  repeated[7].id = repeated[3].id;
  repeated[7].pickup = {100.0, 100.0};
  repeated[7].dropoff = {102.0, 100.0};
  const std::uint64_t hits_before = cache.stats().hits;
  expect_groups_equal(enumerate_share_groups(repeated, kOracle, options, 4, &cache),
                      reference::enumerate_serial(repeated, kOracle, options));
  EXPECT_EQ(cache.stats().hits, hits_before);
  EXPECT_EQ(cache.size(), 0u);  // nothing to replay by id
  cached_frame(requests, options, cache);
  cached_frame(requests, options, cache);
}

TEST(Replay, RepeatedIdsPooledTogether) {
  // Two requests under one id, close enough to share a ride: the route
  // search tells riders apart by position, so the pair is pooled like any
  // other, cached or not, and no route is built to trip over the id.
  auto requests = make_city_requests(20, 79, 6.0);
  const GroupOptions options = cache_options();
  GroupCache cache;
  cached_frame(requests, options, cache);
  auto repeated = requests;
  repeated[7].id = repeated[3].id;
  repeated[7].pickup = {repeated[3].pickup.x + 0.05, repeated[3].pickup.y + 0.05};
  repeated[7].dropoff = {repeated[3].dropoff.x + 0.05, repeated[3].dropoff.y - 0.05};
  const std::vector<ShareGroup> serial = reference::enumerate_serial(repeated, kOracle, options);
  EXPECT_TRUE(std::any_of(serial.begin(), serial.end(), [](const ShareGroup& group) {
    return contains_member(group, 3) && contains_member(group, 7);
  }));
  expect_groups_equal(enumerate_share_groups(repeated, kOracle, options), serial);
  expect_groups_equal(enumerate_share_groups(repeated, kOracle, options, 4, &cache), serial);
  cached_frame(requests, options, cache);
}

TEST(Replay, DensePathChurnMatchesSerial) {
  // No saving constraint and no radius: the all-pairs emission, where
  // churn pairs are every pair with a churn member.
  GroupOptions options;
  options.detour_threshold_km = 2.0;
  options.require_saving = false;
  auto requests = make_city_requests(24, 81, 6.0);
  GroupCache cache;
  Rng rng(83);
  trace::RequestId next_id = 700;
  for (int frame = 0; frame < 4; ++frame) {
    SCOPED_TRACE(::testing::Message() << "frame=" << frame);
    cached_frame(requests, options, cache);
    requests = churn_step(requests, 0.15, 6.0, rng, next_id);
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(Replay, WarmFrameEvaluatesOnlyChurnCandidatesPastTheCertificate) {
  // Pick-ups within 1.5 km of each other, trips of at least 1 km and
  // θ = 3: every pair lies inside the grid's θ/2 + direct radius, so the
  // fresh pair candidates are exactly the pairs with a churn member.
  const GroupOptions options = cache_options();
  auto requests = make_city_requests(40, 85, 1.5);
  GroupCache cache;
  cached_frame(requests, options, cache);

  // Churn: rider 0 edited, rider 9 gone, two arrivals.
  requests[0].pickup.y += 0.1;
  requests.erase(requests.begin() + 9);
  auto arrivals = make_city_requests(2, 86, 1.5);
  for (auto& request : arrivals) request.id += 1000;
  requests.insert(requests.end(), arrivals.begin(), arrivals.end());
  const std::size_t n = requests.size();
  const auto churn = [&](std::size_t i) { return i == 0 || i + 2 >= n; };

  std::vector<double> direct(n);
  for (std::size_t i = 0; i < n; ++i) {
    direct[i] = kOracle.distance(requests[i].pickup, requests[i].dropoff);
  }
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (churn(i) || churn(j)) keys.push_back((static_cast<std::uint64_t>(i) << 32) | j);
    }
  }
  cone_prune_pairs(requests, direct, options.detour_threshold_km, keys);
  std::vector<std::uint8_t> keep;
  simd_certify_pairs(requests, kOracle, direct, options, keys, keep);
  const auto pair_evaluations =
      static_cast<std::uint64_t>(std::count(keep.begin(), keep.end(), 1));
  // Triples: every candidate with a churn member whose three pairs are
  // feasible (triples skip the certificate).
  const auto serial = reference::enumerate_serial(requests, kOracle, options);
  std::set<std::pair<std::size_t, std::size_t>> feasible;
  for (const ShareGroup& group : serial) {
    if (group.member_indices.size() == 2) {
      feasible.emplace(group.member_indices[0], group.member_indices[1]);
    }
  }
  std::uint64_t triple_evaluations = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      for (std::size_t k = j + 1; k < n; ++k) {
        if ((churn(i) || churn(j) || churn(k)) && feasible.count({i, j}) &&
            feasible.count({i, k}) && feasible.count({j, k})) {
          ++triple_evaluations;
        }
      }
    }
  }
  ASSERT_GT(pair_evaluations, 0u);
  ASSERT_GT(triple_evaluations, 0u);

  const std::uint64_t stores_before = cache.stats().stores;
  cached_frame(requests, options, cache);
  EXPECT_EQ(cache.stats().stores - stores_before, pair_evaluations + triple_evaluations);
}

// ---------------------------------------------------------------------------
// Observability: the pipeline's counters reach the active sink.

TEST(ObsCounters, PipelineCountersReachTheActiveSink) {
  obs::TraceSink sink;
  obs::Activation guard(sink);
  const auto requests = make_city_requests(64, 37, 16.0);
  GroupOptions options;
  options.detour_threshold_km = 2.5;
  GroupCache cache;
  const auto counter = [](const obs::FrameTrace& frame, obs::Counter which) {
    return frame.counters[static_cast<std::size_t>(which)];
  };

  sink.begin_frame(0, 0.0);
  enumerate_share_groups(requests, kOracle, options, 4, &cache);
  const obs::FrameTrace cold = sink.end_frame();
  EXPECT_GT(counter(cold, obs::Counter::kConeRejects), 0u);
  EXPECT_GT(counter(cold, obs::Counter::kSimdBatches), 0u);
  EXPECT_GE(counter(cold, obs::Counter::kSimdBatchOccupancy),
            counter(cold, obs::Counter::kSimdBatches));
  EXPECT_GT(counter(cold, obs::Counter::kGroupCacheRevalidations), 0u);
  EXPECT_EQ(counter(cold, obs::Counter::kGroupCacheHits), 0u);

  sink.begin_frame(1, 60.0);
  enumerate_share_groups(requests, kOracle, options, 4, &cache);
  const obs::FrameTrace hot = sink.end_frame();
  EXPECT_GT(counter(hot, obs::Counter::kGroupCacheHits), 0u);
}

// ---------------------------------------------------------------------------
// Parallel exact evaluation: a frame with enough surviving candidates fans
// the exact evaluations out over the pool and still matches the serial
// scan bit for bit.

TEST(ParallelExact, FanOutMatchesReferenceBitForBit) {
  if (ThreadPool::shared().worker_count() == 0) {
    GTEST_SKIP() << "the shared pool has no workers, so nothing can fan out";
  }
  obs::TraceSink sink;
  obs::Activation guard(sink);
  const auto requests = make_city_requests(96, 61, 12.0);
  GroupOptions options;
  options.detour_threshold_km = 3.0;
  sink.begin_frame(0, 0.0);
  const auto groups = enumerate_share_groups(requests, kOracle, options);
  const obs::FrameTrace frame = sink.end_frame();
  EXPECT_GT(frame.counters[static_cast<std::size_t>(obs::Counter::kExactParallelBatches)],
            0u);
  expect_matches_serial(groups, requests, kOracle, options);
}

}  // namespace
}  // namespace o2o::packing

// ---------------------------------------------------------------------------
// Dispatch-level differential: a shared GroupCache across calls must
// leave the sharing dispatcher's matchings untouched.

namespace o2o::core {
namespace {

const geo::EuclideanOracle kDispatchOracle;

void expect_outcomes_equal(const SharingOutcome& a, const SharingOutcome& b) {
  EXPECT_EQ(a.feasible_groups, b.feasible_groups);
  EXPECT_EQ(a.packed_groups, b.packed_groups);
  EXPECT_EQ(a.unserved_request_indices, b.unserved_request_indices);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].taxi_index, b.assignments[i].taxi_index);
    EXPECT_EQ(a.assignments[i].request_indices, b.assignments[i].request_indices);
    EXPECT_EQ(a.assignments[i].passenger_score, b.assignments[i].passenger_score);
    EXPECT_EQ(a.assignments[i].taxi_score, b.assignments[i].taxi_score);
  }
}

TEST(DispatchDifferential, GroupCacheLeavesMatchingsIdentical) {
  Rng rng(41);
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
    taxis.push_back(trace::Taxi{});
    taxis.back().id = t;
    taxis.back().location = {rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0)};
    taxis.back().seats = 4;
  }

  SharingParams params;
  params.grouping.detour_threshold_km = 3.0;
  const SharingOutcome plain = dispatch_sharing(taxis, requests, kDispatchOracle, params);

  packing::GroupCache cache;
  const SharingOutcome cold =
      dispatch_sharing(taxis, requests, kDispatchOracle, params, nullptr, &cache);
  const SharingOutcome warm =
      dispatch_sharing(taxis, requests, kDispatchOracle, params, nullptr, &cache);
  expect_outcomes_equal(cold, plain);
  expect_outcomes_equal(warm, plain);
  EXPECT_GT(cache.stats().hits, 0u);
}

}  // namespace
}  // namespace o2o::core
