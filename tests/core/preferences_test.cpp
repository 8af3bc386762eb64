#include "core/preferences.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "tests/core/test_helpers.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace o2o::core {
namespace {

using testing::as_vector;

const geo::EuclideanOracle kOracle;

trace::Taxi make_taxi(trace::TaxiId id, geo::Point location, int seats = 4) {
  trace::Taxi taxi;
  taxi.id = id;
  taxi.location = location;
  taxi.seats = seats;
  return taxi;
}

trace::Request make_request(trace::RequestId id, geo::Point pickup, geo::Point dropoff,
                            int seats = 1) {
  trace::Request request;
  request.id = id;
  request.pickup = pickup;
  request.dropoff = dropoff;
  request.seats = seats;
  return request;
}

TEST(FromScores, ListsAreSortedByScore) {
  const auto profile = PreferenceProfile::from_scores({{3.0, 1.0, 2.0}},
                                                      {{0.0, 0.0, 0.0}}, 3);
  EXPECT_EQ(as_vector(profile.request_list(0)), (std::vector<int>{1, 2, 0}));
}

TEST(FromScores, TiesBreakTowardLowerIndex) {
  const auto profile = PreferenceProfile::from_scores({{5.0, 5.0, 1.0}},
                                                      {{0.0, 0.0, 0.0}}, 3);
  EXPECT_EQ(as_vector(profile.request_list(0)), (std::vector<int>{2, 0, 1}));
}

TEST(FromScores, UnacceptableEntriesAreTruncated) {
  const auto profile = PreferenceProfile::from_scores({{2.0, kUnacceptable, 1.0}},
                                                      {{0.0, 0.0, kUnacceptable}}, 3);
  EXPECT_EQ(as_vector(profile.request_list(0)), (std::vector<int>{2, 0}));
  EXPECT_EQ(profile.request_rank(0, 1), PreferenceProfile::kNoRank);
  EXPECT_FALSE(profile.acceptable(0, 1));  // request side truncated
  EXPECT_FALSE(profile.acceptable(0, 2));  // taxi side truncated
  EXPECT_TRUE(profile.acceptable(0, 0));
}

TEST(FromScores, TaxiListsAreColumnsOfTheScoreMatrix) {
  const auto profile = PreferenceProfile::from_scores(
      {{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}}, {{5.0, 1.0}, {2.0, 2.0}, {9.0, 3.0}}, 2);
  EXPECT_EQ(as_vector(profile.taxi_list(0)), (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(as_vector(profile.taxi_list(1)), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(profile.taxi_rank(0, 2), 2u);
}

TEST(FromScores, ListCapKeepsOnlyBestEntries) {
  const auto profile = PreferenceProfile::from_scores({{4.0, 3.0, 2.0, 1.0}},
                                                      {{0, 0, 0, 0}}, 4,
                                                      /*list_cap=*/2);
  EXPECT_EQ(as_vector(profile.request_list(0)), (std::vector<int>{3, 2}));
  EXPECT_EQ(profile.request_rank(0, 0), PreferenceProfile::kNoRank);
}

TEST(FromScores, MismatchedShapesThrow) {
  EXPECT_THROW(PreferenceProfile::from_scores({{1.0}}, {{1.0, 2.0}}, 1),
               ContractViolation);
  EXPECT_THROW(
      PreferenceProfile::from_scores({{1.0}, {1.0, 2.0}}, {{1.0}, {1.0, 2.0}}, 2),
      ContractViolation);
}

TEST(FromScores, ZeroRequestsKeepExplicitTaxiCount) {
  const auto profile = PreferenceProfile::from_scores({}, {}, 5);
  EXPECT_EQ(profile.request_count(), 0u);
  EXPECT_EQ(profile.taxi_count(), 5u);
  EXPECT_TRUE(profile.taxi_list(4).empty());
}

TEST(FromCandidates, EmptySidesHoldNoPairs) {
  const auto none = PreferenceProfile::from_candidates({}, 0);
  EXPECT_EQ(none.request_count(), 0u);
  EXPECT_EQ(none.taxi_count(), 0u);
  const auto no_taxis = PreferenceProfile::from_candidates({{}, {}}, 0);
  EXPECT_EQ(no_taxis.request_count(), 2u);
  EXPECT_TRUE(no_taxis.request_list(1).empty());
  EXPECT_THROW((void)no_taxis.request_rank(0, 0), ContractViolation);
  const auto no_requests = PreferenceProfile::from_candidates({}, 3);
  EXPECT_TRUE(no_requests.taxi_list(2).empty());
  EXPECT_THROW((void)no_requests.taxi_rank(0, 0), ContractViolation);
}

TEST(FromCandidates, PairTableMatchesTheListsEverywhere) {
  // A sparse random profile: every listed pair reads its list position
  // and scores back, every unlisted one reads kNoRank / kUnacceptable.
  constexpr std::size_t kRequests = 60;
  constexpr std::size_t kTaxis = 45;
  Rng rng(31);
  std::vector<std::vector<PreferenceProfile::Candidate>> rows(kRequests);
  std::vector<std::vector<double>> passenger(kRequests,
                                             std::vector<double>(kTaxis, kUnacceptable));
  std::vector<std::vector<double>> taxi(kRequests, std::vector<double>(kTaxis, kUnacceptable));
  for (std::size_t r = 0; r < kRequests; ++r) {
    for (std::size_t t = 0; t < kTaxis; ++t) {
      if (!rng.bernoulli(0.2)) continue;
      const double p = rng.bernoulli(0.8) ? rng.uniform(0, 10) : kUnacceptable;
      const double q = p == kUnacceptable || rng.bernoulli(0.8) ? rng.uniform(-5, 5)
                                                                : kUnacceptable;
      rows[r].push_back({static_cast<int>(t), p, q});
      passenger[r][t] = p;
      taxi[r][t] = q;
    }
  }
  const auto profile = PreferenceProfile::from_candidates(rows, kTaxis);
  for (std::size_t r = 0; r < kRequests; ++r) {
    for (std::size_t t = 0; t < kTaxis; ++t) {
      EXPECT_EQ(profile.passenger_score(r, t), passenger[r][t]);
      EXPECT_EQ(profile.taxi_score(t, r), taxi[r][t]);
      const auto& rlist = profile.request_list(r);
      const auto rpos = std::find(rlist.begin(), rlist.end(), static_cast<int>(t));
      EXPECT_EQ(profile.request_rank(r, t), rpos == rlist.end()
                                                ? PreferenceProfile::kNoRank
                                                : static_cast<std::size_t>(rpos - rlist.begin()));
      const auto& tlist = profile.taxi_list(t);
      const auto tpos = std::find(tlist.begin(), tlist.end(), static_cast<int>(r));
      EXPECT_EQ(profile.taxi_rank(t, r), tpos == tlist.end()
                                             ? PreferenceProfile::kNoRank
                                             : static_cast<std::size_t>(tpos - tlist.begin()));
      EXPECT_EQ(profile.acceptable(r, t), rpos != rlist.end() && tpos != tlist.end());
    }
  }
}

TEST(FromCandidates, DuplicatePairsAndOversizedFleetsFail) {
  EXPECT_THROW(PreferenceProfile::from_candidates({{{1, 1.0, 1.0}, {0, 1.0, 1.0}, {1, 2.0, 2.0}}},
                                                  3),
               ContractViolation);
  // Taxi indices are ints, which keeps every pair key clear of the pair
  // table's empty-slot key; a larger fleet is refused before allocating.
  EXPECT_THROW(PreferenceProfile::from_candidates(
                   {}, static_cast<std::size_t>(std::numeric_limits<int>::max()) + 1),
               ContractViolation);
}

TEST(Prefers, DummySemantics) {
  const auto profile = PreferenceProfile::from_scores({{1.0, kUnacceptable}},
                                                      {{0.0, 0.0}}, 2);
  // Any acceptable partner beats the dummy.
  EXPECT_TRUE(profile.request_prefers(0, 0, kDummy));
  EXPECT_FALSE(profile.request_prefers(0, kDummy, 0));
  // The dummy beats an unacceptable partner.
  EXPECT_TRUE(profile.request_prefers(0, kDummy, 1) ==
              false);  // both rank kNoRank: no strict preference
  EXPECT_FALSE(profile.request_prefers(0, 1, kDummy));
  EXPECT_FALSE(profile.request_prefers(0, kDummy, kDummy));
}

TEST(NonSharingProfile, PassengerScoreIsPickupDistance) {
  const std::vector<trace::Taxi> taxis{make_taxi(0, {3, 4})};
  const std::vector<trace::Request> requests{make_request(0, {0, 0}, {0, 5})};
  const auto profile =
      build_nonsharing_profile(taxis, requests, kOracle, PreferenceParams{});
  EXPECT_DOUBLE_EQ(profile.passenger_score(0, 0), 5.0);
}

TEST(NonSharingProfile, TaxiScoreSubtractsAlphaTrip) {
  const std::vector<trace::Taxi> taxis{make_taxi(0, {3, 4})};
  const std::vector<trace::Request> requests{make_request(0, {0, 0}, {0, 5})};
  PreferenceParams params;
  params.alpha = 2.0;
  const auto profile = build_nonsharing_profile(taxis, requests, kOracle, params);
  EXPECT_DOUBLE_EQ(profile.taxi_score(0, 0), 5.0 - 2.0 * 5.0);
}

TEST(NonSharingProfile, NearestTaxiRanksFirst) {
  const std::vector<trace::Taxi> taxis{make_taxi(0, {10, 0}), make_taxi(1, {1, 0}),
                                       make_taxi(2, {4, 0})};
  const std::vector<trace::Request> requests{make_request(0, {0, 0}, {0, 9})};
  const auto profile =
      build_nonsharing_profile(taxis, requests, kOracle, PreferenceParams{});
  EXPECT_EQ(as_vector(profile.request_list(0)), (std::vector<int>{1, 2, 0}));
}

TEST(NonSharingProfile, TaxiPrefersLongTripsNearby) {
  // Same pickup distance; the longer trip pays more, so the taxi prefers it.
  const std::vector<trace::Taxi> taxis{make_taxi(0, {0, 0})};
  const std::vector<trace::Request> requests{
      make_request(0, {1, 0}, {2, 0}),    // trip 1 km
      make_request(1, {0, 1}, {0, 10})};  // trip 9 km
  const auto profile =
      build_nonsharing_profile(taxis, requests, kOracle, PreferenceParams{});
  EXPECT_EQ(as_vector(profile.taxi_list(0)), (std::vector<int>{1, 0}));
}

TEST(NonSharingProfile, PassengerThresholdCreatesDummy) {
  const std::vector<trace::Taxi> taxis{make_taxi(0, {1, 0}), make_taxi(1, {9, 0})};
  const std::vector<trace::Request> requests{make_request(0, {0, 0}, {0, 5})};
  PreferenceParams params;
  params.passenger_threshold_km = 5.0;
  const auto profile = build_nonsharing_profile(taxis, requests, kOracle, params);
  // Taxi 1 lies beyond the dummy.
  EXPECT_EQ(as_vector(profile.request_list(0)), (std::vector<int>{0}));
}

TEST(NonSharingProfile, TaxiThresholdCreatesDummy) {
  // Taxi score = pickup - alpha * trip; with a tight threshold the
  // low-payoff request falls past the dummy.
  const std::vector<trace::Taxi> taxis{make_taxi(0, {5, 0})};
  const std::vector<trace::Request> requests{
      make_request(0, {0, 0}, {0, 1}),   // score 5 - 1 = 4
      make_request(1, {0, 0}, {0, 8})};  // score 5 - 8 = -3
  PreferenceParams params;
  params.taxi_threshold_score = 0.0;
  const auto profile = build_nonsharing_profile(taxis, requests, kOracle, params);
  EXPECT_EQ(as_vector(profile.taxi_list(0)), (std::vector<int>{1}));
  EXPECT_FALSE(profile.acceptable(0, 0));
}

TEST(NonSharingProfile, SeatShortageIsMutuallyUnacceptable) {
  const std::vector<trace::Taxi> taxis{make_taxi(0, {1, 0}, /*seats=*/2)};
  const std::vector<trace::Request> requests{make_request(0, {0, 0}, {5, 0}, /*seats=*/3)};
  const auto profile =
      build_nonsharing_profile(taxis, requests, kOracle, PreferenceParams{});
  EXPECT_TRUE(profile.request_list(0).empty());
  EXPECT_TRUE(profile.taxi_list(0).empty());
}

TEST(NonSharingProfile, EmptyInputsYieldEmptyProfile) {
  const auto profile =
      build_nonsharing_profile({}, {}, kOracle, PreferenceParams{});
  EXPECT_EQ(profile.request_count(), 0u);
  EXPECT_EQ(profile.taxi_count(), 0u);
}

/// Euclidean distances from an oracle that forbids concurrent queries,
/// which makes for_each_row score every row on the calling thread.
class SerialOracle final : public geo::DistanceOracle {
 public:
  double distance(const geo::Point& a, const geo::Point& b) const override {
    return kOracle.distance(a, b);
  }
  Capabilities capabilities() const noexcept override {
    Capabilities capabilities;
    capabilities.concurrent_queries = false;
    return capabilities;
  }
};

/// True iff both profiles hold the same lists and the same scores.
bool same_profile(const PreferenceProfile& a, const PreferenceProfile& b) {
  if (a.request_count() != b.request_count() || a.taxi_count() != b.taxi_count()) return false;
  for (std::size_t r = 0; r < a.request_count(); ++r) {
    if (as_vector(a.request_list(r)) != as_vector(b.request_list(r))) return false;
    for (const int t : a.request_list(r)) {
      const auto taxi = static_cast<std::size_t>(t);
      if (a.passenger_score(r, taxi) != b.passenger_score(r, taxi)) return false;
    }
  }
  for (std::size_t t = 0; t < a.taxi_count(); ++t) {
    if (as_vector(a.taxi_list(t)) != as_vector(b.taxi_list(t))) return false;
    for (const int r : a.taxi_list(t)) {
      if (a.taxi_score(t, static_cast<std::size_t>(r)) !=
          b.taxi_score(t, static_cast<std::size_t>(r))) {
        return false;
      }
    }
  }
  return true;
}

// Two threads build different profiles at once on ThreadPool::shared().
// Each build's rows land in per-lane arenas owned by the thread that
// runs it, so neither can see the other's rows, whichever workers serve
// whose lanes.
TEST(BuildNonsharingProfile, ConcurrentBuildsOnTheSharedPoolEqualTheirSerialBuilds) {
  Rng rng(2718);
  const auto first = testing::random_instance(rng, 96, 80);
  const auto second = testing::random_instance(rng, 130, 60, 14.0);
  PreferenceParams params;
  params.passenger_threshold_km = 4.0;
  params.taxi_threshold_score = 2.0;
  const SerialOracle serial;
  const PreferenceProfile want_first =
      build_nonsharing_profile(first.taxis, first.requests, serial, params);
  const PreferenceProfile want_second =
      build_nonsharing_profile(second.taxis, second.requests, serial, params);
  ASSERT_FALSE(same_profile(want_first, want_second));

  std::atomic<int> mismatches{0};
  const auto build_repeatedly = [&](const testing::RandomInstance& instance,
                           const PreferenceProfile& want) {
    for (int round = 0; round < 40; ++round) {
      const PreferenceProfile got =
          build_nonsharing_profile(instance.taxis, instance.requests, kOracle, params);
      if (!same_profile(got, want)) mismatches.fetch_add(1);
    }
  };
  std::thread a(build_repeatedly, std::cref(first), std::cref(want_first));
  std::thread b(build_repeatedly, std::cref(second), std::cref(want_second));
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
  if (ThreadPool::shared().worker_count() == 0) {
    GTEST_SKIP() << "no pool workers: both builds ran serially";
  }
}

}  // namespace
}  // namespace o2o::core
