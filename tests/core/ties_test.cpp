#include "core/ties.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "core/shard_engine.h"
#include "tests/core/test_helpers.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace o2o::core {
namespace {

using testing::as_vector;

TiedScores all_tied(std::size_t requests, std::size_t taxis) {
  TiedScores scores;
  scores.passenger.assign(requests, std::vector<double>(taxis, 1.0));
  scores.taxi.assign(requests, std::vector<double>(taxis, 1.0));
  return scores;
}

TEST(WeakStability, FullyTiedAnyPerfectMatchingIsWeaklyStable) {
  const TiedScores scores = all_tied(2, 2);
  // With everyone indifferent, no strictly-blocking pair can exist.
  EXPECT_TRUE(is_weakly_stable(scores, make_matching({0, 1}, 2)));
  EXPECT_TRUE(is_weakly_stable(scores, make_matching({1, 0}, 2)));
}

TEST(WeakStability, UnmatchedAcceptablePairStillBlocks) {
  const TiedScores scores = all_tied(1, 1);
  // Both unmatched and mutually acceptable: strictly better than dummies.
  EXPECT_FALSE(is_weakly_stable(scores, make_matching({kDummy}, 1)));
}

TEST(WeakStability, StrictBlockRequiresBothSidesStrict) {
  TiedScores scores = all_tied(2, 2);
  // r0 strictly prefers t0, but t0 is indifferent: not a strict block.
  scores.passenger[0][0] = 0.5;
  const Matching swapped = make_matching({1, 0}, 2);
  EXPECT_TRUE(is_weakly_stable(scores, swapped));
  // Now make t0 strictly prefer r0 as well -> strict block appears.
  scores.taxi[0][0] = 0.5;
  EXPECT_FALSE(is_weakly_stable(scores, swapped));
  const auto blocks = strict_blocking_pairs(scores, swapped);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], (std::pair<std::size_t, std::size_t>{0, 0}));
}

TEST(WeakStability, InvalidMatchingIsNotWeaklyStable) {
  TiedScores scores = all_tied(1, 2);
  scores.passenger[0][1] = kUnacceptable;
  EXPECT_FALSE(is_weakly_stable(scores, make_matching({1}, 2)));
}

TEST(BreakTies, ProducesAStrictProfileOfTheSameShape) {
  const TiedScores scores = all_tied(3, 4);
  const PreferenceProfile profile = break_ties(scores, 7);
  EXPECT_EQ(profile.request_count(), 3u);
  EXPECT_EQ(profile.taxi_count(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(profile.request_list(r).size(), 4u);  // nothing truncated
  }
}

TEST(BreakTies, PreservesUnacceptability) {
  TiedScores scores = all_tied(2, 2);
  scores.passenger[0][1] = kUnacceptable;
  scores.taxi[1][0] = kUnacceptable;
  const PreferenceProfile profile = break_ties(scores, 3);
  EXPECT_FALSE(profile.acceptable(0, 1));
  EXPECT_FALSE(profile.acceptable(1, 0));
  EXPECT_TRUE(profile.acceptable(0, 0));
}

TEST(BreakTies, DoesNotReorderStrictPreferences) {
  TiedScores scores = all_tied(1, 3);
  scores.passenger[0] = {3.0, 1.0, 2.0};
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const PreferenceProfile profile = break_ties(scores, seed);
    EXPECT_EQ(as_vector(profile.request_list(0)), (std::vector<int>{1, 2, 0}))
        << "seed " << seed;
  }
}

TEST(BreakTies, DifferentSeedsExploreDifferentTieBreaks) {
  const TiedScores scores = all_tied(1, 4);
  std::set<std::vector<int>> orders;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    orders.insert(as_vector(break_ties(scores, seed).request_list(0)));
  }
  EXPECT_GT(orders.size(), 3u);  // 4! = 24 possible; expect real variety
}

TEST(TieBreakGs, EveryRandomTieBreakIsWeaklyStable) {
  Rng rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    TiedScores scores;
    const std::size_t requests = 2 + rng.uniform_index(5);
    const std::size_t taxis = 2 + rng.uniform_index(5);
    scores.passenger.assign(requests, std::vector<double>(taxis));
    scores.taxi.assign(requests, std::vector<double>(taxis));
    for (std::size_t r = 0; r < requests; ++r) {
      for (std::size_t t = 0; t < taxis; ++t) {
        // Coarse integer scores force plenty of ties.
        scores.passenger[r][t] =
            rng.bernoulli(0.2) ? kUnacceptable : static_cast<double>(rng.uniform_index(3));
        scores.taxi[r][t] =
            rng.bernoulli(0.2) ? kUnacceptable : static_cast<double>(rng.uniform_index(3));
      }
    }
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Matching matching = gale_shapley_requests(break_ties(scores, seed));
      EXPECT_TRUE(is_weakly_stable(scores, matching)) << "trial " << trial;
    }
  }
}

TEST(BreakTies, RejectsScoreGapsInsideTheJitterSpan) {
  // Two *distinct* scores closer together than the jitter span violate
  // the determinism contract: the perturbation could flip a genuine
  // preference, so break_ties must refuse rather than silently produce
  // a draw-dependent profile.
  TiedScores scores = all_tied(1, 2);
  scores.passenger[0][1] = 1.0 + 5e-10;
  EXPECT_THROW(break_ties(scores, 1), ContractViolation);
}

TEST(DeterminismContract, ShardedMergeIsStableUnderRequestRelabeling) {
  // The cross-component determinism contract (ties.h): on a strict
  // profile, the sharded engine's merge -- components ordered by their
  // smallest member request id -- must agree with the serial run under
  // *any* labeling of the requests. Relabeling permutes the matching
  // row-for-row without changing a single matched pair.
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t requests = 4 + rng.uniform_index(6);
    const std::size_t taxis = 4 + rng.uniform_index(6);
    std::vector<std::vector<double>> passenger(requests, std::vector<double>(taxis));
    std::vector<std::vector<double>> taxi(requests, std::vector<double>(taxis));
    for (std::size_t r = 0; r < requests; ++r) {
      for (std::size_t t = 0; t < taxis; ++t) {
        // Continuous scores: strict preferences with probability one.
        passenger[r][t] = rng.bernoulli(0.3) ? kUnacceptable : rng.uniform(0.0, 100.0);
        taxi[r][t] = rng.bernoulli(0.3) ? kUnacceptable : rng.uniform(0.0, 100.0);
      }
    }
    const PreferenceProfile profile =
        PreferenceProfile::from_scores(passenger, taxi, taxis);
    const Matching serial = gale_shapley_requests(profile);
    const Matching sharded = sharded_gale_shapley(profile, ProposalSide::kPassengers);
    EXPECT_EQ(serial.request_to_taxi, sharded.request_to_taxi) << "trial " << trial;

    // Relabel: request i of the permuted instance is request perm[i] of
    // the original.
    std::vector<std::size_t> perm(requests);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (std::size_t i = requests; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
    }
    std::vector<std::vector<double>> passenger_perm(requests);
    std::vector<std::vector<double>> taxi_perm(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      passenger_perm[i] = passenger[perm[i]];
      taxi_perm[i] = taxi[perm[i]];
    }
    const PreferenceProfile relabeled =
        PreferenceProfile::from_scores(passenger_perm, taxi_perm, taxis);
    const Matching serial_perm = gale_shapley_requests(relabeled);
    const Matching sharded_perm =
        sharded_gale_shapley(relabeled, ProposalSide::kPassengers);
    EXPECT_EQ(serial_perm.request_to_taxi, sharded_perm.request_to_taxi)
        << "trial " << trial;
    for (std::size_t i = 0; i < requests; ++i) {
      EXPECT_EQ(sharded_perm.request_to_taxi[i], serial.request_to_taxi[perm[i]])
          << "trial " << trial << " request " << i;
    }
  }
}

TEST(MaxCardinality, TieBreaksCanChangeTheMatchedCount) {
  // The classic size-variance instance: r0 is indifferent between t0 and
  // t1; r1 only accepts t0. Tie-break r0 -> t0 leaves r1 unmatched
  // (size 1); tie-break r0 -> t1 serves both (size 2).
  TiedScores scores;
  scores.passenger = {{1.0, 1.0}, {1.0, kUnacceptable}};
  scores.taxi = {{1.0, 1.0}, {1.0, kUnacceptable}};
  const TieBreakResult best = max_cardinality_weakly_stable(scores, 32, 5);
  EXPECT_EQ(best.matched, 2u);
  EXPECT_EQ(best.matching.request_to_taxi, (std::vector<int>{1, 0}));
  EXPECT_TRUE(is_weakly_stable(scores, best.matching));
}

TEST(MaxCardinality, NeverWorseThanTheDeterministicTieBreak) {
  Rng rng(92);
  for (int trial = 0; trial < 15; ++trial) {
    TiedScores scores;
    const std::size_t n = 4 + rng.uniform_index(4);
    scores.passenger.assign(n, std::vector<double>(n));
    scores.taxi.assign(n, std::vector<double>(n));
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t t = 0; t < n; ++t) {
        scores.passenger[r][t] =
            rng.bernoulli(0.3) ? kUnacceptable : static_cast<double>(rng.uniform_index(2));
        scores.taxi[r][t] =
            rng.bernoulli(0.3) ? kUnacceptable : static_cast<double>(rng.uniform_index(2));
      }
    }
    const Matching deterministic = gale_shapley_requests(
        PreferenceProfile::from_scores(scores.passenger, scores.taxi, scores.taxi_count()));
    const TieBreakResult best = max_cardinality_weakly_stable(scores, 8, 3);
    EXPECT_GE(best.matched, deterministic.matched_count()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace o2o::core
