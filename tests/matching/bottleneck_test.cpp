#include "matching/bottleneck.h"

#include <gtest/gtest.h>

#include "tests/reference/brute_force.h"
#include "util/rng.h"

namespace o2o::matching {
namespace {

TEST(Bottleneck, PrefersBalancedOverCheapTotal) {
  // Total-cost optimum pairs (0,0)=1 and (1,1)=9 (total 10, max 9); the
  // bottleneck optimum is (0,1)=5, (1,0)=5 (total 10, max 5).
  CostMatrix costs(2, 2);
  costs.at(0, 0) = 1.0;
  costs.at(0, 1) = 5.0;
  costs.at(1, 0) = 5.0;
  costs.at(1, 1) = 9.0;
  const Assignment assignment = solve_min_max(costs);
  EXPECT_EQ(assignment_size(assignment), 2u);
  EXPECT_DOUBLE_EQ(assignment_bottleneck(costs, assignment), 5.0);
}

TEST(Bottleneck, SingleRow) {
  CostMatrix costs(1, 3);
  costs.at(0, 0) = 4;
  costs.at(0, 1) = 2;
  costs.at(0, 2) = 8;
  EXPECT_EQ(solve_min_max(costs), (Assignment{1}));
}

TEST(Bottleneck, ForbiddenPairsRespected) {
  CostMatrix costs(2, 2, kForbidden);
  costs.at(0, 1) = 3.0;
  costs.at(1, 0) = 4.0;
  const Assignment assignment = solve_min_max(costs);
  EXPECT_EQ(assignment, (Assignment{1, 0}));
}

TEST(Bottleneck, AllForbiddenMatchesNothing) {
  CostMatrix costs(2, 3, kForbidden);
  EXPECT_EQ(assignment_size(solve_min_max(costs)), 0u);
}

TEST(Bottleneck, CardinalityBeforeBottleneck) {
  // Dropping row 1 would give max cost 1, but both rows can be matched
  // with max cost 50 -- cardinality wins.
  CostMatrix costs(2, 2, kForbidden);
  costs.at(0, 0) = 1.0;
  costs.at(0, 1) = 50.0;
  costs.at(1, 0) = 2.0;
  const Assignment assignment = solve_min_max(costs);
  EXPECT_EQ(assignment_size(assignment), 2u);
  EXPECT_DOUBLE_EQ(assignment_bottleneck(costs, assignment), 50.0);
}

TEST(Bottleneck, EmptyMatrix) {
  CostMatrix costs(0, 2);
  EXPECT_TRUE(solve_min_max(costs).empty());
}

struct RandomCase {
  std::uint64_t seed;
  std::size_t rows;
  std::size_t cols;
  double forbidden_fraction;
};

class BottleneckVsBruteForce : public ::testing::TestWithParam<RandomCase> {};

TEST_P(BottleneckVsBruteForce, ObjectiveMatchesExhaustiveSearch) {
  const RandomCase param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 25; ++trial) {
    CostMatrix costs(param.rows, param.cols);
    for (std::size_t r = 0; r < param.rows; ++r) {
      for (std::size_t c = 0; c < param.cols; ++c) {
        costs.at(r, c) = rng.bernoulli(param.forbidden_fraction)
                             ? kForbidden
                             : rng.uniform(0.0, 20.0);
      }
    }
    const Assignment fast = solve_min_max(costs);
    const Assignment exact = reference::brute_force_min_max(costs);
    EXPECT_TRUE(is_valid_assignment(costs, fast));
    EXPECT_EQ(assignment_size(fast), assignment_size(exact)) << "trial " << trial;
    if (assignment_size(exact) > 0) {
      EXPECT_NEAR(assignment_bottleneck(costs, fast),
                  assignment_bottleneck(costs, exact), 1e-9)
          << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, BottleneckVsBruteForce,
    ::testing::Values(RandomCase{201, 3, 3, 0.0}, RandomCase{202, 4, 4, 0.25},
                      RandomCase{203, 5, 5, 0.5}, RandomCase{204, 2, 6, 0.1},
                      RandomCase{205, 6, 2, 0.1}, RandomCase{206, 6, 6, 0.35}));

TEST(Bottleneck, BottleneckNeverExceedsMinCostBottleneck) {
  // The min-max matching's bottleneck is by definition <= any other
  // max-cardinality matching's bottleneck, including the Hungarian one.
  Rng rng(303);
  for (int trial = 0; trial < 20; ++trial) {
    CostMatrix costs(5, 5);
    for (std::size_t r = 0; r < 5; ++r) {
      for (std::size_t c = 0; c < 5; ++c) costs.at(r, c) = rng.uniform(0.0, 30.0);
    }
    const Assignment min_max = solve_min_max(costs);
    const Assignment min_cost = reference::brute_force_min_cost(costs);
    EXPECT_LE(assignment_bottleneck(costs, min_max),
              assignment_bottleneck(costs, min_cost) + 1e-9);
  }
}

}  // namespace
}  // namespace o2o::matching
