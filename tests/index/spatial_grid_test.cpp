#include "index/spatial_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "util/rng.h"

// Every global allocation in this binary bumps the counter, so a test can
// read it around a rebuild. The replacements pair malloc with free; GCC
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

namespace o2o::index {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

geo::Rect bounds() { return geo::Rect{{0, 0}, {20, 20}}; }

/// Indices of `points` within `radius` of `q`, ascending: the grid's
/// squared-distance predicate, evaluated by a scan.
std::vector<std::int32_t> brute_force(const std::vector<geo::Point>& points, geo::Point q,
                                      double radius) {
  std::vector<std::int32_t> ids;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (geo::squared_distance(q, points[i]) <= radius * radius) {
      ids.push_back(static_cast<std::int32_t>(i));
    }
  }
  return ids;
}

std::vector<std::int32_t> sorted_query(const SpatialGrid& grid, geo::Point q, double radius) {
  std::vector<std::int32_t> ids = grid.within_radius(q, radius);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Every query answer checked against a scan of `points`; radii stay
/// below 1e154 so the squared-distance test cannot overflow.
void expect_exact_queries(const SpatialGrid& grid, const std::vector<geo::Point>& points,
                          const std::vector<geo::Point>& queries) {
  for (const geo::Point& q : queries) {
    for (const double radius : {0.0, 1.0, 500.0, 2e5, kInf}) {
      std::vector<std::int32_t> expected;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (geo::euclidean_distance(q, points[i]) <= radius) {
          expected.push_back(static_cast<std::int32_t>(i));
        }
      }
      EXPECT_EQ(sorted_query(grid, q, radius), expected) << q.x << "," << q.y << " r=" << radius;
    }
  }
}

std::vector<trace::Taxi> taxis_at(const std::vector<geo::Point>& points) {
  std::vector<trace::Taxi> taxis(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    taxis[i] = {static_cast<trace::TaxiId>(1000 + i), points[i], 4};
  }
  return taxis;
}

TEST(SpatialGrid, ObjectsOutsideBoundsAreStillFindable) {
  const std::vector<geo::Point> points{{-50, -50}, {3, 3}};  // the first clamps to an edge cell
  const SpatialGrid grid(bounds(), 1.0, points);
  expect_exact_queries(grid, points, {{0, 0}, {3, 3}, {-50, -50}, {-49.5, -49.5}, {20, 20}});
}

TEST(SpatialGrid, WithinRadiusBoundary) {
  const std::vector<geo::Point> points{{3, 0}, {3.1, 0}};
  const SpatialGrid grid(bounds(), 1.0, points);
  EXPECT_EQ(grid.within_radius({0, 0}, 3.0), (std::vector<std::int32_t>{0}));
}

class SpatialGridRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpatialGridRandom, MatchesBruteForceQueries) {
  Rng rng(GetParam());
  std::vector<geo::Point> points;
  for (int i = 0; i < 60; ++i) points.push_back({rng.uniform(0, 20), rng.uniform(0, 20)});
  const SpatialGrid grid(bounds(), 0.8, points);
  for (int q = 0; q < 50; ++q) {
    const geo::Point p{rng.uniform(-2, 22), rng.uniform(-2, 22)};
    const double radius = rng.uniform(0.5, 8.0);
    std::vector<std::int32_t> expected;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (geo::euclidean_distance(p, points[i]) <= radius) {
        expected.push_back(static_cast<std::int32_t>(i));
      }
    }
    EXPECT_EQ(sorted_query(grid, p, radius), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialGridRandom, ::testing::Values(1, 2, 3, 4, 5));

TEST(SpatialGridBulk, KeysBySpanIndexNotTaxiId) {
  // Taxi ids are deliberately non-contiguous; the taxi constructor keys
  // entries by position in the span so dispatch code can index straight
  // back into its frame-local vectors.
  std::vector<trace::Taxi> taxis{{100, {2.0, 3.0}, 4},
                                 {7, {15.0, 15.0}, 4},
                                 {42, {2.5, 3.5}, 2}};
  const SpatialGrid grid(std::span<const trace::Taxi>(taxis), 1.0);
  EXPECT_EQ(grid.size(), taxis.size());
  for (std::size_t i = 0; i < taxis.size(); ++i) {
    EXPECT_EQ(grid.within_radius(taxis[i].location, 0.0),
              (std::vector<std::int32_t>{static_cast<std::int32_t>(i)}))
        << "span index " << i;
  }
  EXPECT_EQ(sorted_query(grid, {2.0, 3.0}, 1.0), (std::vector<std::int32_t>{0, 2}));
}

// The taxi constructor's padded bounds and an explicit box that leaves
// some taxis outside (clamped to edge cells) answer every query alike.
TEST(SpatialGridBulk, MatchesAnExplicitBoundsBuildOnRandomFleets) {
  Rng rng(99);
  std::vector<geo::Point> points;
  for (int t = 0; t < 60; ++t) points.push_back({rng.uniform(-5, 25), rng.uniform(-5, 25)});
  const std::vector<trace::Taxi> taxis = taxis_at(points);
  const SpatialGrid bulk(std::span<const trace::Taxi>(taxis), 1.5);
  const SpatialGrid boxed(bounds(), 1.5, points);
  for (int probe = 0; probe < 40; ++probe) {
    const geo::Point p{rng.uniform(-8, 28), rng.uniform(-8, 28)};
    const double radius = rng.uniform(0.5, 10.0);
    EXPECT_EQ(sorted_query(bulk, p, radius), sorted_query(boxed, p, radius)) << "probe " << probe;
  }
}

TEST(SpatialGridBulk, EmptySpanYieldsAValidEmptyGrid) {
  const std::vector<trace::Taxi> none;
  const SpatialGrid grid(std::span<const trace::Taxi>(none), 2.0);
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_TRUE(grid.within_radius({0.5, 0.5}, 100.0).empty());
}

TEST(SpatialGridBulk, QueriesFarOutsideThePaddedBoundsStillWork) {
  std::vector<trace::Taxi> taxis{{0, {0.0, 0.0}, 4}, {1, {1.0, 0.0}, 4}};
  const SpatialGrid grid(std::span<const trace::Taxi>(taxis), 1.0);
  // A query point hundreds of km outside the fleet's bounding box must
  // clamp, not crash, and still honour the radius test exactly.
  EXPECT_TRUE(grid.within_radius({500.0, 500.0}, 10.0).empty());
  EXPECT_EQ(sorted_query(grid, {500.0, 500.0}, 1000.0), (std::vector<std::int32_t>{0, 1}));
}

TEST(SpatialGridBulk, FarApartPointsKeepTheCellCountBounded) {
  // 90,000 km apart at a 0.25 km cell would be 1.3e11 cells; the grid
  // widens its cell instead.
  const std::vector<geo::Point> points{{0.5, 0.5}, {90000.0, 90000.0}};
  const SpatialGrid grid(std::span<const geo::Point>(points), 0.25);
  EXPECT_LE(grid.cell_count(), std::size_t{1} << 18);
  expect_exact_queries(grid, points,
                       {{0.0, 0.0}, {0.5, 0.5}, {45000.0, 45000.0}, {90000.0, 89999.5},
                        {-1e6, 3.0}, {1.0, 1.0}, {89000.0, 90000.0}});

  // A point at 1e300 (finite, still a valid double) neither overflows
  // the cell arithmetic nor escapes a query.
  const std::vector<geo::Point> extreme{{0.5, 0.5}, {90000.0, 90000.0}, {1e300, 1e300}};
  const SpatialGrid wide(std::span<const geo::Point>(extreme), 0.25);
  EXPECT_LE(wide.cell_count(), std::size_t{1} << 18);
  expect_exact_queries(wide, extreme,
                       {{0.0, 0.0}, {90000.0, 90000.0}, {1e300, 1e300}, {1e300, 0.0}});

  // An extent past the largest double (width overflows to infinity).
  const std::vector<geo::Point> widest{{-1.7e308, 0.0}, {1.7e308, 0.0}, {0.0, 3.0}};
  const SpatialGrid widest_grid(std::span<const geo::Point>(widest), 0.25);
  EXPECT_LE(widest_grid.cell_count(), std::size_t{1} << 18);
  expect_exact_queries(widest_grid, widest, {{0.0, 0.0}, {1.7e308, 0.0}, {-1.7e308, 1.0}});

  // Far from the origin a coordinate's ulp exceeds the pad: a lone point
  // or a column of equal coordinates must still get a box of positive
  // extent.
  for (const double far : {1e16, 1e18, 1.7e308}) {
    const std::vector<geo::Point> single{{far, far}};
    const SpatialGrid lone(std::span<const geo::Point>(single), 0.25);
    EXPECT_LE(lone.cell_count(), std::size_t{1} << 18) << far;
    expect_exact_queries(lone, single, {{far, far}, {0.0, 0.0}, {far, 0.0}});

    const std::vector<geo::Point> column{{far, 0.0}, {far, 5.0}, {far, far}};
    const SpatialGrid equal_x(std::span<const geo::Point>(column), 0.25);
    EXPECT_LE(equal_x.cell_count(), std::size_t{1} << 18) << far;
    expect_exact_queries(equal_x, column, {{far, 0.0}, {far, 4.5}, {far, far}, {0.0, 0.0}});
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
  }
}

// One frame with an outlier taxi widens the grid to the cell cap; the
// frames after it go back to a grid sized by their own fleet.
TEST(SpatialGridBulk, RebuildAfterAFarFrameKeepsTheBucketCountBounded) {
  std::vector<trace::Taxi> normal{{0, {0.5, 0.5}, 4}, {1, {3.0, 2.0}, 4}, {2, {1.0, 4.0}, 4}};
  std::vector<trace::Taxi> far = normal;
  far.push_back({3, {90000.0, 90000.0}, 4});
  SpatialGrid grid(std::span<const trace::Taxi>(normal), 0.25);
  const std::size_t normal_cells = grid.cell_count();
  grid.rebuild(far);
  EXPECT_LE(grid.cell_count(), std::size_t{1} << 18);
  EXPECT_GT(grid.cell_count(), 4 * normal_cells);
  const std::vector<geo::Point> locations{normal[0].location, normal[1].location,
                                          normal[2].location};
  for (int frame = 0; frame < 3; ++frame) {
    grid.rebuild(normal);
    EXPECT_EQ(grid.cell_count(), normal_cells) << "frame " << frame;
    expect_exact_queries(grid, locations, {{0.0, 0.0}, {2.0, 2.0}, {90000.0, 90000.0}, {1.0, 4.0}});
  }
}

// Entries come out cell by cell in row-major order, and by ascending id
// inside a cell, whatever order the points arrive in.
TEST(SpatialGridLayout, EmissionOrderIsRowMajorCellsThenAscendingIds) {
  // A 4 x 4 grid of 1 km cells over [0, 4)^2.
  const std::vector<geo::Point> points{
      {3.5, 3.5},  // 0: cell (3, 3)
      {0.5, 2.5},  // 1: cell (0, 2)
      {2.5, 0.5},  // 2: cell (2, 0)
      {0.5, 0.5},  // 3: cell (0, 0)
      {2.2, 0.8},  // 4: cell (2, 0)
      {0.5, 2.5},  // 5: cell (0, 2), a duplicate of 1
      {1.0, 0.0},  // 6: on the border of cells (0, 0) and (1, 0): cell (1, 0)
      {3.9, 2.1},  // 7: cell (3, 2)
  };
  const SpatialGrid grid(geo::Rect{{0.0, 0.0}, {4.0, 4.0}}, 1.0, points);
  ASSERT_EQ(grid.cell_count(), 16u);
  EXPECT_EQ(grid.within_radius({2.0, 2.0}, kInf),
            (std::vector<std::int32_t>{3, 6, 2, 4, 1, 5, 7, 0}));
  // A query over cells x in [0, 2] of rows 0 and 1 scans one run per row.
  EXPECT_EQ(grid.within_radius({1.25, 0.5}, 1.25), (std::vector<std::int32_t>{3, 6, 2, 4}));
}

/// A fleet shape for the differential: uniform, clustered around a few
/// centres (many duplicate positions and cell-border points), or
/// clustered plus far-apart outliers that push the grid to its cell cap.
enum class Shape { kUniform, kClustered, kFarApart };

std::vector<geo::Point> make_points(Rng& rng, Shape shape, std::size_t count, double cell_km) {
  std::vector<geo::Point> points;
  points.reserve(count);
  std::vector<geo::Point> centres;
  for (int c = 0; c < 4; ++c) centres.push_back({rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)});
  for (std::size_t i = 0; i < count; ++i) {
    const double pick = rng.uniform(0.0, 1.0);
    if (shape == Shape::kUniform || pick < 0.2) {
      points.push_back({rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)});
    } else if (pick < 0.4 && !points.empty()) {
      points.push_back(points[rng.uniform_index(points.size())]);  // duplicate position
    } else if (pick < 0.6) {
      // On a cell border of the requested cell size (from the origin).
      points.push_back({std::round(rng.uniform(0.0, 30.0) / cell_km) * cell_km,
                        std::round(rng.uniform(0.0, 30.0) / cell_km) * cell_km});
    } else {
      const geo::Point& centre = centres[rng.uniform_index(centres.size())];
      points.push_back({centre.x + rng.normal(0.0, 0.7), centre.y + rng.normal(0.0, 0.7)});
    }
  }
  if (shape == Shape::kFarApart) {
    points.push_back({90000.0, -90000.0});
    points.push_back({-3e5, 2e5});
  }
  return points;
}

/// Query points: a random mix of uniform points, existing positions and
/// cell borders, with radius 0, small, large and infinite radii.
void expect_matches_brute_force(const SpatialGrid& grid, const std::vector<geo::Point>& points,
                                Rng& rng, double cell_km) {
  std::vector<std::int32_t> hits;
  for (int probe = 0; probe < 60; ++probe) {
    geo::Point q{rng.uniform(-5.0, 35.0), rng.uniform(-5.0, 35.0)};
    if (probe % 3 == 1 && !points.empty()) q = points[rng.uniform_index(points.size())];
    if (probe % 3 == 2) q = {std::round(q.x / cell_km) * cell_km, q.y};
    for (const double radius : {0.0, rng.uniform(0.0, 2.0 * cell_km), rng.uniform(0.0, 20.0),
                                1e6, kInf}) {
      hits.clear();
      grid.within_radius_into(q, radius, hits);
      std::sort(hits.begin(), hits.end());
      ASSERT_EQ(hits, brute_force(points, q, radius))
          << "probe " << probe << " at " << q.x << "," << q.y << " r=" << radius;
    }
  }
}

struct DifferentialCase {
  std::uint64_t seed;
  Shape shape;
};

class SpatialGridDifferential : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(SpatialGridDifferential, MatchesBruteForceAcrossGrowingThenShrinkingRebuilds) {
  Rng rng(GetParam().seed);
  const Shape shape = GetParam().shape;
  // The far-apart fleets use a fine cell, so the cap is what sizes them.
  const double cell_km = shape == Shape::kFarApart ? 0.05 : rng.uniform(0.3, 3.0);
  SpatialGrid grid(std::span<const trace::Taxi>{}, cell_km);
  for (const std::size_t count : {1u, 40u, 400u, 3000u, 120u, 7u, 0u, 900u}) {
    SCOPED_TRACE(::testing::Message() << "count " << count);
    const std::vector<geo::Point> points = make_points(rng, shape, count, cell_km);
    const std::vector<trace::Taxi> taxis = taxis_at(points);
    grid.rebuild(taxis);
    ASSERT_EQ(grid.size(), points.size());
    const std::size_t cap = std::max<std::size_t>(std::size_t{1} << 18, 4 * points.size());
    EXPECT_LE(grid.cell_count(), cap);
    // The far-apart fleets span ~10^5 km at 0.05 km cells: the cap binds.
    if (shape == Shape::kFarApart) {
      EXPECT_GT(grid.cell_count(), cap / 8);
    }
    expect_matches_brute_force(grid, points, rng, cell_km);

    // A fresh build emits the same ids in the same order.
    const SpatialGrid fresh(std::span<const geo::Point>(points), cell_km);
    for (int probe = 0; probe < 10; ++probe) {
      const geo::Point q{rng.uniform(-5.0, 35.0), rng.uniform(-5.0, 35.0)};
      const double radius = rng.uniform(0.0, 15.0);
      EXPECT_EQ(grid.within_radius(q, radius), fresh.within_radius(q, radius));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, SpatialGridDifferential,
    ::testing::Values(DifferentialCase{1, Shape::kUniform}, DifferentialCase{2, Shape::kUniform},
                      DifferentialCase{3, Shape::kClustered},
                      DifferentialCase{4, Shape::kClustered},
                      DifferentialCase{5, Shape::kFarApart},
                      DifferentialCase{6, Shape::kFarApart}),
    [](const ::testing::TestParamInfo<DifferentialCase>& info) {
      const char* shape = info.param.shape == Shape::kUniform     ? "Uniform"
                          : info.param.shape == Shape::kClustered ? "Clustered"
                                                                  : "FarApart";
      return std::string(shape) + std::to_string(info.param.seed);
    });

// The frame-rebuilt grids (the idle-taxi grid, the pick-up grid) reuse
// their arrays: a rebuild over no more points than an earlier one, at a
// geometry no larger, allocates nothing.
TEST(SpatialGridLayout, WarmRebuildAllocatesNothing) {
  Rng rng(17);
  std::vector<geo::Point> largest;
  for (int i = 0; i < 500; ++i) largest.push_back({rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)});
  const std::vector<trace::Taxi> largest_fleet = taxis_at(largest);
  std::vector<trace::Taxi> smaller(largest_fleet.begin(), largest_fleet.begin() + 200);
  SpatialGrid taxi_grid(std::span<const trace::Taxi>(largest_fleet), 1.0);
  SpatialGrid point_grid(std::span<const geo::Point>(largest), 1.0);

  const std::size_t before = g_allocations.load();
  taxi_grid.rebuild(largest_fleet);
  taxi_grid.rebuild(smaller);
  taxi_grid.rebuild(std::span<const trace::Taxi>{});
  point_grid.rebuild(largest, 1.0);
  point_grid.rebuild(std::span<const geo::Point>(largest).first(100), 2.0);
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(taxi_grid.size(), 0u);
  EXPECT_EQ(point_grid.size(), 100u);
}

}  // namespace
}  // namespace o2o::index
