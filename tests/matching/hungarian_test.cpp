#include "matching/hungarian.h"

#include <gtest/gtest.h>

#include "tests/reference/brute_force.h"
#include "util/rng.h"

namespace o2o::matching {
namespace {

TEST(Hungarian, TextbookSquareInstance) {
  CostMatrix costs(3, 3);
  const double values[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) costs.at(r, c) = values[r][c];
  }
  const Assignment assignment = solve_min_cost(costs);
  EXPECT_DOUBLE_EQ(assignment_cost(costs, assignment), 5.0);  // 1 + 2 + 2
  EXPECT_EQ(assignment_size(assignment), 3u);
}

TEST(Hungarian, SingleCell) {
  CostMatrix costs(1, 1, 3.5);
  EXPECT_EQ(solve_min_cost(costs), (Assignment{0}));
}

TEST(Hungarian, MoreRowsThanColumnsLeavesRowsUnmatched) {
  CostMatrix costs(3, 1);
  costs.at(0, 0) = 5.0;
  costs.at(1, 0) = 1.0;
  costs.at(2, 0) = 3.0;
  const Assignment assignment = solve_min_cost(costs);
  EXPECT_EQ(assignment_size(assignment), 1u);
  EXPECT_EQ(assignment[1], 0);  // the cheapest row wins
}

TEST(Hungarian, MoreColumnsThanRows) {
  CostMatrix costs(1, 4);
  costs.at(0, 0) = 9;
  costs.at(0, 1) = 2;
  costs.at(0, 2) = 7;
  costs.at(0, 3) = 4;
  EXPECT_EQ(solve_min_cost(costs), (Assignment{1}));
}

TEST(Hungarian, ForbiddenPairsAreNeverUsed) {
  CostMatrix costs(2, 2, 1.0);
  costs.at(0, 0) = kForbidden;
  costs.at(1, 1) = kForbidden;
  const Assignment assignment = solve_min_cost(costs);
  EXPECT_EQ(assignment, (Assignment{1, 0}));
}

TEST(Hungarian, AllForbiddenLeavesEverythingUnmatched) {
  CostMatrix costs(2, 2, kForbidden);
  const Assignment assignment = solve_min_cost(costs);
  EXPECT_EQ(assignment_size(assignment), 0u);
}

TEST(Hungarian, MaximizesCardinalityBeforeCost) {
  // Matching both rows forces total cost 100 + 1; matching only row 0 at
  // cost 1 would be cheaper but loses cardinality.
  CostMatrix costs(2, 2, kForbidden);
  costs.at(0, 0) = 1.0;
  costs.at(0, 1) = 100.0;
  costs.at(1, 0) = 1.0;
  const Assignment assignment = solve_min_cost(costs);
  EXPECT_EQ(assignment_size(assignment), 2u);
  EXPECT_EQ(assignment, (Assignment{1, 0}));
}

TEST(Hungarian, HandlesNegativeCosts) {
  CostMatrix costs(2, 2);
  costs.at(0, 0) = -5.0;
  costs.at(0, 1) = 1.0;
  costs.at(1, 0) = -1.0;
  costs.at(1, 1) = -4.0;
  const Assignment assignment = solve_min_cost(costs);
  EXPECT_DOUBLE_EQ(assignment_cost(costs, assignment), -9.0);
}

TEST(Hungarian, EmptyMatrixEdges) {
  CostMatrix costs(0, 3);
  EXPECT_TRUE(solve_min_cost(costs).empty());
}

struct RandomCase {
  std::uint64_t seed;
  std::size_t rows;
  std::size_t cols;
  double forbidden_fraction;
};

class HungarianVsBruteForce : public ::testing::TestWithParam<RandomCase> {};

TEST_P(HungarianVsBruteForce, ObjectiveMatchesExhaustiveSearch) {
  const RandomCase param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 25; ++trial) {
    CostMatrix costs(param.rows, param.cols);
    for (std::size_t r = 0; r < param.rows; ++r) {
      for (std::size_t c = 0; c < param.cols; ++c) {
        costs.at(r, c) = rng.bernoulli(param.forbidden_fraction)
                             ? kForbidden
                             : rng.uniform(-10.0, 10.0);
      }
    }
    const Assignment fast = solve_min_cost(costs);
    const Assignment exact = reference::brute_force_min_cost(costs);
    EXPECT_TRUE(is_valid_assignment(costs, fast));
    EXPECT_EQ(assignment_size(fast), assignment_size(exact)) << "trial " << trial;
    EXPECT_NEAR(assignment_cost(costs, fast), assignment_cost(costs, exact), 1e-9)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, HungarianVsBruteForce,
    ::testing::Values(RandomCase{101, 3, 3, 0.0}, RandomCase{102, 4, 4, 0.2},
                      RandomCase{103, 5, 5, 0.4}, RandomCase{104, 2, 6, 0.1},
                      RandomCase{105, 6, 2, 0.1}, RandomCase{106, 5, 3, 0.3},
                      RandomCase{107, 3, 7, 0.5}, RandomCase{108, 6, 6, 0.6},
                      RandomCase{109, 1, 5, 0.2}, RandomCase{110, 5, 1, 0.2}));

TEST(Hungarian, LargeRandomInstanceIsValidAndBeatsGreedyBound) {
  Rng rng(7777);
  const std::size_t n = 120;
  CostMatrix costs(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) costs.at(r, c) = rng.uniform(0.0, 100.0);
  }
  const Assignment assignment = solve_min_cost(costs);
  EXPECT_TRUE(is_valid_assignment(costs, assignment));
  EXPECT_EQ(assignment_size(assignment), n);
  // Sanity: the optimum cannot exceed the row-wise minima sum by much --
  // in fact it is at least that sum; check both directions loosely.
  double row_minima = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    double best = costs.at(r, 0);
    for (std::size_t c = 1; c < n; ++c) best = std::min(best, costs.at(r, c));
    row_minima += best;
  }
  EXPECT_GE(assignment_cost(costs, assignment) + 1e-9, row_minima);
}

}  // namespace
}  // namespace o2o::matching
