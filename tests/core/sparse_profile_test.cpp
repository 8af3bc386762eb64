// Differential tests for the grid-pruned preference profile: on the same
// instance, build_nonsharing_profile and dispatch_sharing must reproduce
// the dense all-pairs references in tests/reference/profiles exactly —
// pairs beyond the passenger threshold can never match, and dropping
// them preserves the relative order of every preference list.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <gtest/gtest.h>

#include "core/all_stable.h"
#include "core/sharing.h"
#include "core/stable_matching.h"
#include "geo/road_network.h"
#include "index/spatial_grid.h"
#include "tests/core/test_helpers.h"
#include "tests/reference/profiles.h"
#include "util/rng.h"

namespace o2o::core {
namespace {

using testing::as_vector;
using testing::random_instance;

const geo::EuclideanOracle kEuclidean;
const geo::ManhattanOracle kManhattan;

PreferenceParams pruned_params() {
  PreferenceParams params;
  params.passenger_threshold_km = 3.0;
  return params;
}

/// Sorted set of matchings for order-insensitive comparison.
std::vector<std::vector<int>> matching_set(const std::vector<Matching>& matchings) {
  std::vector<std::vector<int>> keys;
  keys.reserve(matchings.size());
  for (const Matching& matching : matchings) keys.push_back(matching.request_to_taxi);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void expect_equivalent_profiles(const PreferenceProfile& dense,
                                const PreferenceProfile& sparse) {
  ASSERT_EQ(dense.request_count(), sparse.request_count());
  ASSERT_EQ(dense.taxi_count(), sparse.taxi_count());
  for (std::size_t r = 0; r < dense.request_count(); ++r) {
    // Passenger-acceptable pairs are always within the grid radius, so
    // request lists — and with them acceptability and passenger scores —
    // must agree pair for pair.
    EXPECT_EQ(as_vector(dense.request_list(r)), as_vector(sparse.request_list(r)))
        << "request " << r;
    for (std::size_t t = 0; t < dense.taxi_count(); ++t) {
      EXPECT_EQ(dense.request_rank(r, t), sparse.request_rank(r, t));
      EXPECT_EQ(dense.acceptable(r, t), sparse.acceptable(r, t));
      EXPECT_EQ(dense.passenger_score(r, t), sparse.passenger_score(r, t));
      // Taxi ranks/scores may legitimately differ for pairs beyond the
      // passenger radius (the sparse profile drops them); within the
      // sparse taxi list they must agree with the dense scores.
      if (sparse.taxi_rank(t, r) != PreferenceProfile::kNoRank) {
        EXPECT_EQ(dense.taxi_score(t, r), sparse.taxi_score(t, r));
      }
    }
  }
}

TEST(SparseProfile, MatchesDenseMatchingsOnRandomInstances) {
  Rng rng(211);
  for (int trial = 0; trial < 10; ++trial) {
    const auto instance = random_instance(rng, 12, 15);
    for (const geo::DistanceOracle* oracle :
         {static_cast<const geo::DistanceOracle*>(&kEuclidean),
          static_cast<const geo::DistanceOracle*>(&kManhattan)}) {
      const auto dense = reference::dense_nonsharing_profile(
          instance.taxis, instance.requests, *oracle, pruned_params());
      const auto sparse = build_nonsharing_profile(instance.taxis, instance.requests,
                                                   *oracle, pruned_params());
      expect_equivalent_profiles(dense, sparse);
      EXPECT_EQ(gale_shapley_requests(dense).request_to_taxi,
                gale_shapley_requests(sparse).request_to_taxi)
          << "trial " << trial;
      EXPECT_EQ(gale_shapley_taxis(dense).request_to_taxi,
                gale_shapley_taxis(sparse).request_to_taxi)
          << "trial " << trial;
    }
  }
}

TEST(SparseProfile, ExplicitBulkGridMatchesLocalGrid) {
  Rng rng(212);
  for (int trial = 0; trial < 5; ++trial) {
    const auto instance = random_instance(rng, 10, 20);
    const index::SpatialGrid grid(std::span<const trace::Taxi>(instance.taxis),
                                  /*cell_km=*/1.0);
    const auto with_grid = build_nonsharing_profile(instance.taxis, instance.requests,
                                                    kEuclidean, pruned_params(), &grid);
    const auto without = build_nonsharing_profile(instance.taxis, instance.requests,
                                                  kEuclidean, pruned_params());
    const auto dense = reference::dense_nonsharing_profile(instance.taxis, instance.requests,
                                                           kEuclidean, pruned_params());
    expect_equivalent_profiles(dense, with_grid);
    for (std::size_t r = 0; r < with_grid.request_count(); ++r) {
      EXPECT_EQ(as_vector(with_grid.request_list(r)), as_vector(without.request_list(r)));
    }
    EXPECT_EQ(gale_shapley_requests(with_grid).request_to_taxi,
              gale_shapley_requests(dense).request_to_taxi);
  }
}

TEST(SparseProfile, EnumerationAgreesOnSmallInstances) {
  // The acceptance bar: identical *sets* of stable schedules, not just
  // the two extremes, on brute-forceable instances.
  Rng rng(213);
  for (int trial = 0; trial < 8; ++trial) {
    const auto instance = random_instance(rng, 7, 5);
    const auto dense = reference::dense_nonsharing_profile(instance.taxis, instance.requests,
                                                           kEuclidean, pruned_params());
    const auto sparse = build_nonsharing_profile(instance.taxis, instance.requests,
                                                 kEuclidean, pruned_params());
    const AllStableResult dense_all = enumerate_all_stable(dense);
    const AllStableResult sparse_all = enumerate_all_stable(sparse);
    ASSERT_FALSE(dense_all.truncated);
    ASSERT_FALSE(sparse_all.truncated);
    EXPECT_EQ(matching_set(dense_all.matchings), matching_set(sparse_all.matchings))
        << "trial " << trial;
    EXPECT_EQ(matching_set(sparse_all.matchings),
              matching_set(brute_force_all_stable(sparse)))
        << "trial " << trial;
  }
}

TEST(SparseProfile, NetworkOracleStillPrunesExactly) {
  // Road distances dominate the straight-line metric the grid filters on
  // (snap gaps plus a path no shorter than the chord), so pruning stays
  // exact under the network oracle too. Since the sharded-cache rebuild
  // this oracle also allows concurrent queries, so the pruned build goes
  // through the (potentially parallel) row fan-out.
  const geo::RoadNetwork network =
      geo::RoadNetwork::make_grid_city(6, 6, 2.0, /*jitter_km=*/0.2,
                                       /*closure_fraction=*/0.1, /*seed=*/5);
  const geo::NetworkOracle oracle(network);
  ASSERT_TRUE(oracle.capabilities().concurrent_queries);
  Rng rng(214);
  for (int trial = 0; trial < 3; ++trial) {
    const auto instance = random_instance(rng, 8, 12);
    PreferenceParams pruned = pruned_params();
    pruned.passenger_threshold_km = 5.0;
    const auto dense =
        reference::dense_nonsharing_profile(instance.taxis, instance.requests, oracle, pruned);
    const auto sparse =
        build_nonsharing_profile(instance.taxis, instance.requests, oracle, pruned);
    expect_equivalent_profiles(dense, sparse);
    EXPECT_EQ(gale_shapley_requests(dense).request_to_taxi,
              gale_shapley_requests(sparse).request_to_taxi);
  }
}

TEST(SparseProfile, NetworkParallelBuildMatchesSerialDenseBuild) {
  // A large network-backed instance built through the (parallel-eligible)
  // fan-out must produce the same profile and matchings as the serial
  // dense reference.
  const geo::RoadNetwork network =
      geo::RoadNetwork::make_grid_city(12, 12, 1.5, /*jitter_km=*/0.3,
                                       /*closure_fraction=*/0.15, /*seed=*/9);
  const geo::NetworkOracle oracle(network, /*cache_capacity=*/2048);
  ASSERT_TRUE(oracle.capabilities().concurrent_queries);

  Rng rng(218);
  const auto instance = random_instance(rng, 64, 96);  // clears the serial cutoff
  PreferenceParams pruned = pruned_params();
  pruned.passenger_threshold_km = 6.0;

  const auto dense_serial =
      reference::dense_nonsharing_profile(instance.taxis, instance.requests, oracle, pruned);
  const auto sparse_parallel =
      build_nonsharing_profile(instance.taxis, instance.requests, oracle, pruned);
  expect_equivalent_profiles(dense_serial, sparse_parallel);
  EXPECT_EQ(gale_shapley_requests(dense_serial).request_to_taxi,
            gale_shapley_requests(sparse_parallel).request_to_taxi);
  EXPECT_EQ(gale_shapley_taxis(dense_serial).request_to_taxi,
            gale_shapley_taxis(sparse_parallel).request_to_taxi);
}

TEST(SparseProfile, InfiniteThresholdMatchesDenseReference) {
  // At tau_p = infinity no grid is built: every seat-feasible taxi is a
  // candidate, so the profile must equal the dense reference on both
  // sides — lists, ranks and bitwise scores — under every oracle.
  const geo::RoadNetwork network =
      geo::RoadNetwork::make_grid_city(6, 6, 2.0, /*jitter_km=*/0.2,
                                       /*closure_fraction=*/0.1, /*seed=*/7);
  const geo::NetworkOracle road(network);
  Rng rng(219);
  for (int trial = 0; trial < 4; ++trial) {
    auto instance = random_instance(rng, 20, 24);
    // Two-seat requests against one-seat taxis are past the dummy.
    for (std::size_t t = 0; t < instance.taxis.size(); t += 3) instance.taxis[t].seats = 1;
    for (std::size_t r = 0; r < instance.requests.size(); r += 4) {
      instance.requests[r].seats = 2;
    }
    PreferenceParams params;
    params.taxi_threshold_score = 2.0;
    params.list_cap = trial % 2 == 0 ? 0 : 5;
    for (const geo::DistanceOracle* oracle :
         {static_cast<const geo::DistanceOracle*>(&kEuclidean),
          static_cast<const geo::DistanceOracle*>(&kManhattan),
          static_cast<const geo::DistanceOracle*>(&road)}) {
      const auto dense = reference::dense_nonsharing_profile(
          instance.taxis, instance.requests, *oracle, params);
      const auto built =
          build_nonsharing_profile(instance.taxis, instance.requests, *oracle, params);
      ASSERT_EQ(dense.request_count(), built.request_count());
      ASSERT_EQ(dense.taxi_count(), built.taxi_count());
      for (std::size_t t = 0; t < dense.taxi_count(); ++t) {
        EXPECT_EQ(as_vector(dense.taxi_list(t)), as_vector(built.taxi_list(t)))
            << "taxi " << t;
      }
      for (std::size_t r = 0; r < dense.request_count(); ++r) {
        EXPECT_EQ(as_vector(dense.request_list(r)), as_vector(built.request_list(r)))
            << "request " << r;
        for (std::size_t t = 0; t < dense.taxi_count(); ++t) {
          EXPECT_EQ(dense.request_rank(r, t), built.request_rank(r, t));
          EXPECT_EQ(dense.taxi_rank(t, r), built.taxi_rank(t, r));
          EXPECT_EQ(dense.acceptable(r, t), built.acceptable(r, t));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(dense.passenger_score(r, t)),
                    std::bit_cast<std::uint64_t>(built.passenger_score(r, t)));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(dense.taxi_score(t, r)),
                    std::bit_cast<std::uint64_t>(built.taxi_score(t, r)));
        }
      }
      EXPECT_EQ(gale_shapley_requests(dense).request_to_taxi,
                gale_shapley_requests(built).request_to_taxi)
          << "trial " << trial;
      EXPECT_EQ(gale_shapley_taxis(dense).request_to_taxi,
                gale_shapley_taxis(built).request_to_taxi)
          << "trial " << trial;
    }
  }
}

TEST(SparseProfile, SharingDispatchAgreesWithDensePath) {
  Rng rng(215);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<trace::Taxi> taxis;
    for (int t = 0; t < 12; ++t) {
      taxis.push_back({t, {rng.uniform(0, 10), rng.uniform(0, 10)}, 4});
    }
    std::vector<trace::Request> requests;
    for (int r = 0; r < 10; ++r) {
      trace::Request request;
      request.id = r;
      request.pickup = {rng.uniform(0, 10), rng.uniform(0, 10)};
      request.dropoff = {rng.uniform(0, 10), rng.uniform(0, 10)};
      requests.push_back(request);
    }
    SharingParams pruned;
    pruned.preference.passenger_threshold_km = 4.0;
    pruned.grouping.detour_threshold_km = 3.0;
    for (const ProposalSide side : {ProposalSide::kPassengers, ProposalSide::kTaxis}) {
      pruned.side = side;
      const auto a = dispatch_sharing(taxis, requests, kEuclidean, pruned);
      const auto b = reference::dense_dispatch_sharing(taxis, requests, kEuclidean, pruned);
      EXPECT_EQ(a.unserved_request_indices, b.unserved_request_indices);
      ASSERT_EQ(a.assignments.size(), b.assignments.size());
      for (std::size_t i = 0; i < a.assignments.size(); ++i) {
        EXPECT_EQ(a.assignments[i].taxi_index, b.assignments[i].taxi_index);
        EXPECT_EQ(a.assignments[i].request_indices, b.assignments[i].request_indices);
        EXPECT_DOUBLE_EQ(a.assignments[i].passenger_score, b.assignments[i].passenger_score);
        EXPECT_DOUBLE_EQ(a.assignments[i].taxi_score, b.assignments[i].taxi_score);
      }
    }
  }
}

TEST(SparseProfile, ParallelConstructionIsDeterministic) {
  Rng rng(216);
  // Large enough to clear the serial cutoff in for_each_row.
  const auto instance = random_instance(rng, 64, 64);
  const auto first = build_nonsharing_profile(instance.taxis, instance.requests,
                                              kEuclidean, pruned_params());
  const auto second = build_nonsharing_profile(instance.taxis, instance.requests,
                                               kEuclidean, pruned_params());
  ASSERT_EQ(first.request_count(), second.request_count());
  for (std::size_t r = 0; r < first.request_count(); ++r) {
    EXPECT_EQ(as_vector(first.request_list(r)), as_vector(second.request_list(r)));
  }
  for (std::size_t t = 0; t < first.taxi_count(); ++t) {
    EXPECT_EQ(as_vector(first.taxi_list(t)), as_vector(second.taxi_list(t)));
  }
}

}  // namespace
}  // namespace o2o::core
