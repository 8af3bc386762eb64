#include "index/spatial_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace o2o::index {
namespace {

geo::Rect bounds() { return geo::Rect{{0, 0}, {20, 20}}; }

/// Every query answer checked against a scan of `objects`; radii stay
/// below 1e154 so the squared-distance test cannot overflow.
void expect_exact_queries(const SpatialGrid& grid,
                          const std::vector<std::pair<std::int32_t, geo::Point>>& objects,
                          const std::vector<geo::Point>& queries) {
  const double kInf = std::numeric_limits<double>::infinity();
  for (const geo::Point& q : queries) {
    for (const double radius : {0.0, 1.0, 500.0, 2e5, kInf}) {
      auto found = grid.within_radius(q, radius);
      std::sort(found.begin(), found.end());
      std::vector<std::int32_t> expected;
      for (const auto& [id, pos] : objects) {
        if (geo::euclidean_distance(q, pos) <= radius) expected.push_back(id);
      }
      EXPECT_EQ(found, expected) << q.x << "," << q.y << " r=" << radius;
    }
  }
}

TEST(SpatialGrid, InsertLookupRemove) {
  SpatialGrid grid(bounds(), 1.0);
  grid.upsert(1, {5, 5});
  EXPECT_TRUE(grid.contains(1));
  EXPECT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid.position(1)->x, 5.0);
  grid.remove(1);
  EXPECT_FALSE(grid.contains(1));
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_FALSE(grid.position(1).has_value());
}

TEST(SpatialGrid, RemoveMissingIsNoOp) {
  SpatialGrid grid(bounds(), 1.0);
  grid.remove(42);
  EXPECT_EQ(grid.size(), 0u);
}

TEST(SpatialGrid, UpsertMovesAcrossCells) {
  SpatialGrid grid(bounds(), 1.0);
  grid.upsert(7, {1, 1});
  grid.upsert(7, {18, 18});
  EXPECT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid.within_radius({19, 19}, 2.0), (std::vector<std::int32_t>{7}));
  EXPECT_TRUE(grid.within_radius({1, 1}, 2.0).empty());
}

TEST(SpatialGrid, ObjectsOutsideBoundsAreStillFindable) {
  SpatialGrid grid(bounds(), 1.0);
  grid.upsert(9, {-50, -50});  // clamped into an edge cell
  grid.upsert(4, {3, 3});
  expect_exact_queries(grid, {{4, {3, 3}}, {9, {-50, -50}}},
                       {{0, 0}, {3, 3}, {-50, -50}, {-49.5, -49.5}, {20, 20}});
}

TEST(SpatialGrid, WithinRadiusBoundary) {
  SpatialGrid grid(bounds(), 1.0);
  grid.upsert(1, {3, 0});
  grid.upsert(2, {3.1, 0});
  auto hits = grid.within_radius({0, 0}, 3.0);
  EXPECT_EQ(hits, (std::vector<std::int32_t>{1}));
}

class SpatialGridRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpatialGridRandom, MatchesBruteForceQueries) {
  Rng rng(GetParam());
  SpatialGrid grid(bounds(), 0.8);
  std::vector<std::pair<std::int32_t, geo::Point>> objects;
  for (std::int32_t id = 0; id < 60; ++id) {
    const geo::Point p{rng.uniform(0, 20), rng.uniform(0, 20)};
    grid.upsert(id, p);
    objects.emplace_back(id, p);
  }
  for (int q = 0; q < 50; ++q) {
    const geo::Point p{rng.uniform(-2, 22), rng.uniform(-2, 22)};
    const double radius = rng.uniform(0.5, 8.0);
    auto in_radius = grid.within_radius(p, radius);
    std::sort(in_radius.begin(), in_radius.end());
    std::vector<std::int32_t> expected_ids;
    for (const auto& [id, pos] : objects) {
      if (geo::euclidean_distance(p, pos) <= radius) expected_ids.push_back(id);
    }
    EXPECT_EQ(in_radius, expected_ids);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialGridRandom, ::testing::Values(1, 2, 3, 4, 5));

TEST(SpatialGridBulk, KeysBySpanIndexNotTaxiId) {
  // Taxi ids are deliberately non-contiguous; the bulk constructor keys
  // entries by position in the span so dispatch code can index straight
  // back into its frame-local vectors.
  std::vector<trace::Taxi> taxis{{100, {2.0, 3.0}, 4},
                                 {7, {15.0, 15.0}, 4},
                                 {42, {2.5, 3.5}, 2}};
  const SpatialGrid grid(std::span<const trace::Taxi>(taxis), 1.0);
  EXPECT_EQ(grid.size(), taxis.size());
  for (std::size_t i = 0; i < taxis.size(); ++i) {
    const auto pos = grid.position(static_cast<std::int32_t>(i));
    ASSERT_TRUE(pos.has_value()) << "span index " << i;
    EXPECT_EQ(pos->x, taxis[i].location.x);
    EXPECT_EQ(pos->y, taxis[i].location.y);
  }
  EXPECT_FALSE(grid.contains(100));

  auto near_origin = grid.within_radius({2.0, 3.0}, 1.0);
  std::sort(near_origin.begin(), near_origin.end());
  EXPECT_EQ(near_origin, (std::vector<std::int32_t>{0, 2}));
}

TEST(SpatialGridBulk, MatchesIncrementalConstructionOnRandomFleets) {
  Rng rng(99);
  std::vector<trace::Taxi> taxis;
  for (int t = 0; t < 60; ++t) {
    taxis.push_back({t, {rng.uniform(-5, 25), rng.uniform(-5, 25)}, 4});
  }
  const SpatialGrid bulk(std::span<const trace::Taxi>(taxis), 1.5);
  SpatialGrid incremental(bounds(), 1.5);
  for (std::size_t i = 0; i < taxis.size(); ++i) {
    incremental.upsert(static_cast<std::int32_t>(i), taxis[i].location);
  }
  for (int probe = 0; probe < 40; ++probe) {
    const geo::Point p{rng.uniform(-8, 28), rng.uniform(-8, 28)};
    const double radius = rng.uniform(0.5, 10.0);
    auto a = bulk.within_radius(p, radius);
    auto b = incremental.within_radius(p, radius);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "probe " << probe;
  }
}

TEST(SpatialGridBulk, EmptySpanYieldsAValidEmptyGrid) {
  const std::vector<trace::Taxi> none;
  const SpatialGrid grid(std::span<const trace::Taxi>(none), 2.0);
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_TRUE(grid.within_radius({0.5, 0.5}, 100.0).empty());
}

TEST(SpatialGridDelta, MultiFrameChurnSoakMatchesFreshGrids) {
  // The incremental-frame engine's contract: a grid patched with
  // insert/remove/move across many frames answers within_radius_into
  // identically (same ids, same order) to a grid freshly bulk-built over
  // the same membership, including across auto-compactions.
  Rng rng(77);
  std::unordered_map<std::int32_t, geo::Point> live;
  SpatialGrid patched(geo::Rect{{0.0, 0.0}, {20.0, 20.0}}, 1.0);
  std::int32_t next_id = 0;
  const auto random_point = [&] {
    return geo::Point{rng.uniform(-10.0, 40.0), rng.uniform(-10.0, 40.0)};
  };
  for (int i = 0; i < 40; ++i) {
    const geo::Point p = random_point();
    live.emplace(next_id, p);
    patched.insert(next_id, p);
    ++next_id;
  }
  std::size_t compactions_crossed = 0;
  for (int frame = 0; frame < 30; ++frame) {
    // Churn: ~20% departures, ~20% arrivals, ~30% of survivors drift.
    for (auto it = live.begin(); it != live.end();) {
      if (rng.uniform(0.0, 1.0) < 0.2) {
        patched.remove(it->first);
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    for (int added = 0; added < 8; ++added) {
      const geo::Point p = random_point();
      live.emplace(next_id, p);
      patched.insert(next_id, p);
      ++next_id;
    }
    const std::size_t before = patched.mutations_since_compact();
    for (auto& [id, p] : live) {
      if (rng.uniform(0.0, 1.0) < 0.3) {
        p = random_point();
        patched.move(id, p);
      }
    }
    if (patched.mutations_since_compact() < before) ++compactions_crossed;

    // Fresh reference over the identical membership, sorted-by-id input
    // so both grids share the bucket-order invariant.
    std::vector<std::pair<std::int32_t, geo::Point>> sorted(live.begin(), live.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::int32_t> ids;
    std::vector<geo::Point> points;
    for (const auto& [id, p] : sorted) {
      ids.push_back(id);
      points.push_back(p);
    }
    const SpatialGrid fresh(ids, points, 1.0);
    ASSERT_EQ(patched.size(), fresh.size());
    std::vector<std::int32_t> a;
    std::vector<std::int32_t> b;
    for (int probe = 0; probe < 25; ++probe) {
      const geo::Point p = random_point();
      const double radius = rng.uniform(0.5, 12.0);
      a.clear();
      b.clear();
      patched.within_radius_into(p, radius, a);
      fresh.within_radius_into(p, radius, b);
      // The exact squared-distance predicate makes the *sets* equal; the
      // sorted-bucket invariant is what makes the raw order equal too.
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "frame " << frame << " probe " << probe;
    }
  }
  // The soak is only meaningful if the auto-compaction actually fired.
  EXPECT_GT(compactions_crossed, 0u);
}

TEST(SpatialGridDelta, ExplicitCompactPreservesAnswers) {
  Rng rng(81);
  SpatialGrid grid(geo::Rect{{0.0, 0.0}, {10.0, 10.0}}, 1.0);
  for (std::int32_t id = 0; id < 50; ++id) {
    grid.insert(id, {rng.uniform(-20.0, 30.0), rng.uniform(-20.0, 30.0)});
  }
  // Drift everything far outside the original bounds, then compact.
  for (std::int32_t id = 0; id < 50; ++id) {
    if (id % 2 == 0) grid.move(id, {rng.uniform(100.0, 140.0), rng.uniform(100.0, 140.0)});
  }
  auto before = grid.within_radius({120.0, 120.0}, 30.0);
  grid.compact();
  EXPECT_EQ(grid.mutations_since_compact(), 0u);
  auto after = grid.within_radius({120.0, 120.0}, 30.0);
  // Membership is exact either way; only the cell-traversal order (and
  // with it the raw emission order) changes when compaction re-bins.
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
  EXPECT_FALSE(before.empty());
}

TEST(SpatialGridBulk, QueriesFarOutsideThePaddedBoundsStillWork) {
  std::vector<trace::Taxi> taxis{{0, {0.0, 0.0}, 4}, {1, {1.0, 0.0}, 4}};
  const SpatialGrid grid(std::span<const trace::Taxi>(taxis), 1.0);
  // A query point hundreds of km outside the fleet's bounding box must
  // clamp, not crash, and still honour the radius test exactly.
  EXPECT_TRUE(grid.within_radius({500.0, 500.0}, 10.0).empty());
  auto all = grid.within_radius({500.0, 500.0}, 1000.0);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<std::int32_t>{0, 1}));
}

TEST(SpatialGridBulk, FarApartPointsKeepTheCellCountBounded) {
  // 90,000 km apart at a 0.25 km cell would be 1.3e11 cells; the grid
  // widens its cell instead.
  const std::vector<geo::Point> points{{0.5, 0.5}, {90000.0, 90000.0}};
  const SpatialGrid grid(std::span<const geo::Point>(points), 0.25);
  EXPECT_LE(grid.cell_count(), std::size_t{1} << 18);
  expect_exact_queries(grid, {{0, points[0]}, {1, points[1]}},
                       {{0.0, 0.0}, {0.5, 0.5}, {45000.0, 45000.0}, {90000.0, 89999.5},
                        {-1e6, 3.0}, {1.0, 1.0}, {89000.0, 90000.0}});

  // A point at 1e300 (finite, still a valid double) neither overflows
  // the cell arithmetic nor escapes a query.
  const std::vector<geo::Point> extreme{{0.5, 0.5}, {90000.0, 90000.0}, {1e300, 1e300}};
  const SpatialGrid wide(std::span<const geo::Point>(extreme), 0.25);
  EXPECT_LE(wide.cell_count(), std::size_t{1} << 18);
  expect_exact_queries(wide, {{0, extreme[0]}, {1, extreme[1]}, {2, extreme[2]}},
                       {{0.0, 0.0}, {90000.0, 90000.0}, {1e300, 1e300}, {1e300, 0.0}});

  // An extent past the largest double (width overflows to infinity).
  const std::vector<geo::Point> widest{{-1.7e308, 0.0}, {1.7e308, 0.0}, {0.0, 3.0}};
  const SpatialGrid widest_grid(std::span<const geo::Point>(widest), 0.25);
  EXPECT_LE(widest_grid.cell_count(), std::size_t{1} << 18);
  expect_exact_queries(widest_grid, {{0, widest[0]}, {1, widest[1]}, {2, widest[2]}},
                       {{0.0, 0.0}, {1.7e308, 0.0}, {-1.7e308, 1.0}});

  // Far from the origin a coordinate's ulp exceeds the pad: a lone point
  // or a column of equal coordinates must still get a box of positive
  // extent.
  for (const double far : {1e16, 1e18, 1.7e308}) {
    const std::vector<geo::Point> single{{far, far}};
    const SpatialGrid lone(std::span<const geo::Point>(single), 0.25);
    EXPECT_LE(lone.cell_count(), std::size_t{1} << 18) << far;
    expect_exact_queries(lone, {{0, single[0]}}, {{far, far}, {0.0, 0.0}, {far, 0.0}});

    const std::vector<geo::Point> column{{far, 0.0}, {far, 5.0}, {far, far}};
    const SpatialGrid equal_x(std::span<const geo::Point>(column), 0.25);
    EXPECT_LE(equal_x.cell_count(), std::size_t{1} << 18) << far;
    expect_exact_queries(equal_x, {{0, column[0]}, {1, column[1]}, {2, column[2]}},
                         {{far, 0.0}, {far, 4.5}, {far, far}, {0.0, 0.0}});
  }
}

TEST(SpatialGridDelta, CompactionAfterAFarMoveKeepsTheCellCountBounded) {
  std::vector<trace::Taxi> taxis{{0, {0.0, 0.0}, 4}, {1, {1.0, 0.0}, 4}};
  SpatialGrid grid(std::span<const trace::Taxi>(taxis), 0.25);
  grid.move(1, {90000.0, 90000.0});
  grid.compact();
  EXPECT_LE(grid.cell_count(), std::size_t{1} << 18);
  expect_exact_queries(grid, {{0, {0.0, 0.0}}, {1, {90000.0, 90000.0}}},
                       {{0.0, 0.0}, {90000.0, 90000.0}, {30.0, -7.0}});
}

// The id -> position table against a map: random upserts and removes
// over a small id range (long probe runs, many backward shifts) plus the
// int32 extremes, with every id's membership and position checked after
// each step.
TEST(SpatialGridDelta, PositionsTrackAReferenceMap) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  std::vector<std::int32_t> probes{kMin, kMax};
  for (std::int32_t id = -8; id < 40; ++id) probes.push_back(id);  // negatives too
  Rng rng(91);
  SpatialGrid grid(bounds(), 2.0);
  std::unordered_map<std::int32_t, geo::Point> reference;
  for (int step = 0; step < 3000; ++step) {
    const std::int32_t id = probes[rng.uniform_index(probes.size())];
    if (rng.bernoulli(0.45)) {
      grid.remove(id);
      reference.erase(id);
    } else {
      const geo::Point p{rng.uniform(-5.0, 25.0), rng.uniform(-5.0, 25.0)};
      grid.upsert(id, p);
      reference[id] = p;
    }
    ASSERT_EQ(grid.size(), reference.size()) << "step " << step;
    for (const std::int32_t probe : probes) {
      const auto it = reference.find(probe);
      ASSERT_EQ(grid.contains(probe), it != reference.end()) << "step " << step;
      if (it != reference.end()) {
        ASSERT_EQ(*grid.position(probe), it->second) << "step " << step;
      }
    }
  }
}

// A grid rebuilt frame after frame over changing fleets answers exactly
// like a grid freshly built over each fleet: same ids in the same order,
// same cell count.
TEST(SpatialGridBulk, RebuildMatchesAFreshBuildEveryFrame) {
  Rng rng(93);
  SpatialGrid rebuilt(std::span<const trace::Taxi>{}, 1.0);
  for (int frame = 0; frame < 12; ++frame) {
    std::vector<trace::Taxi> taxis(rng.uniform_index(60) + (frame == 5 ? 0 : 1));
    const double extent = frame % 3 == 0 ? 40.0 : 8.0;  // the grid shrinks and grows
    for (trace::Taxi& taxi : taxis) {
      taxi.location = {rng.uniform(0.0, extent), rng.uniform(0.0, extent)};
    }
    rebuilt.rebuild(taxis);
    const SpatialGrid fresh(std::span<const trace::Taxi>(taxis), 1.0);
    ASSERT_EQ(rebuilt.size(), taxis.size());
    ASSERT_EQ(rebuilt.cell_count(), fresh.cell_count()) << "frame " << frame;
    for (int probe = 0; probe < 20; ++probe) {
      const geo::Point p{rng.uniform(-2.0, extent + 2.0), rng.uniform(-2.0, extent + 2.0)};
      const double radius = rng.uniform(0.0, extent / 2.0);
      EXPECT_EQ(rebuilt.within_radius(p, radius), fresh.within_radius(p, radius))
          << "frame " << frame << " probe " << probe;
    }
    for (std::size_t i = 0; i < taxis.size(); ++i) {
      EXPECT_EQ(*rebuilt.position(static_cast<std::int32_t>(i)), taxis[i].location);
    }
  }
}

// One frame with an outlier taxi widens the grid to the cell cap; the
// frames after it must go back to a grid sized by their own fleet, not
// keep the outlier's buckets.
TEST(SpatialGridBulk, RebuildAfterAFarFrameKeepsTheBucketCountBounded) {
  std::vector<trace::Taxi> normal{{0, {0.5, 0.5}, 4}, {1, {3.0, 2.0}, 4}, {2, {1.0, 4.0}, 4}};
  std::vector<trace::Taxi> far = normal;
  far.push_back({3, {90000.0, 90000.0}, 4});
  SpatialGrid grid(std::span<const trace::Taxi>(normal), 0.25);
  const std::size_t normal_cells = grid.cell_count();
  grid.rebuild(far);
  EXPECT_LE(grid.bucket_count(), std::size_t{1} << 18);
  EXPECT_GT(grid.cell_count(), 4 * normal_cells);
  for (int frame = 0; frame < 3; ++frame) {
    grid.rebuild(normal);
    EXPECT_EQ(grid.cell_count(), normal_cells) << "frame " << frame;
    EXPECT_LE(grid.bucket_count(), 2 * grid.cell_count()) << "frame " << frame;
    expect_exact_queries(grid, {{0, normal[0].location}, {1, normal[1].location},
                                {2, normal[2].location}},
                         {{0.0, 0.0}, {2.0, 2.0}, {90000.0, 90000.0}, {1.0, 4.0}});
  }
}

}  // namespace
}  // namespace o2o::index
