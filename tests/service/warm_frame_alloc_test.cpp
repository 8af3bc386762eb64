// A warm NSTD-P frame runs without the heap: replayed through
// DispatchSession, from validation through the profile build, deferred
// acceptance and the idle grid, it makes a fixed number of allocations
// beyond the response's own vectors, the same at N and at 2N orders and
// drivers, on the Euclidean and on the road-network oracle.
//
// This binary replaces the global operator new, so it stands alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dispatch_config.h"
#include "geo/distance_oracle.h"
#include "geo/road_network.h"
#include "service/api.h"
#include "service/session.h"
#include "util/rng.h"

// Every global allocation in this binary, on any thread, bumps the
// counter. The replacements pair malloc with free; GCC cannot see that
// through the replaced operators and warns.
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
// std::stable_sort's buffer comes from the nothrow form and goes back
// through the sized delete below, so both forms must be malloc-backed.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace o2o::service {
namespace {

constexpr int kFrames = 6;
/// Allocations a warm frame may make beyond its response: the profile's
/// own arrays, the component partition, the match arrays and a few
/// type-erased loop bodies (24 when this test was written).
constexpr std::size_t kWarmFrameBound = 32;

/// One frame of a synthetic city: `orders` fresh orders and `drivers`
/// drivers at random positions in [0, extent]², every fourth driver busy
/// carrying one rider to a drop-off.
api::FrameRequest make_frame(Rng& rng, std::uint64_t index, std::size_t orders,
                             std::size_t drivers, double extent) {
  const auto point = [&] {
    return geo::Point{rng.uniform(0, extent), rng.uniform(0, extent)};
  };
  api::FrameRequest request;
  request.frame = index;
  request.timestamp = 60.0 * static_cast<double>(index + 1);
  for (std::size_t o = 0; o < orders; ++o) {
    api::Order order;
    order.order_id = static_cast<api::OrderId>(100000 * index + o);
    order.timestamp = request.timestamp - rng.uniform(0, 50);
    order.start = point();
    order.finish = point();
    request.orders.push_back(order);
  }
  for (std::size_t d = 0; d < drivers; ++d) {
    api::Driver driver;
    driver.driver_id = static_cast<api::DriverId>(d);
    driver.location = point();
    if (d % 4 == 0) {
      const auto rider = static_cast<api::OrderId>(90000000 + d);
      driver.seats_in_use = 1;
      driver.onboard = {rider};
      driver.route = {api::DriverStop{rider, false, point()}};
      driver.route_seats = {{rider, 1}};
    }
    request.drivers.push_back(std::move(driver));
  }
  return request;
}

/// `frame` replayed `laps` frames later: every timestamp shifts by the
/// same amount and every order gets a fresh id, as in a stream where
/// matched orders leave, so the warm memory never hits.
api::FrameRequest shifted(api::FrameRequest frame, std::uint64_t laps) {
  const double shift = 60.0 * static_cast<double>(laps * kFrames);
  frame.frame += laps * kFrames;
  frame.timestamp += shift;
  for (api::Order& order : frame.orders) {
    order.timestamp += shift;
    order.order_id += static_cast<api::OrderId>(1000000 * laps);
  }
  return frame;
}

/// Per-frame allocations of the last lap, minus the response's own
/// vectors: the dispatcher's result and the api response each hold one
/// array of assignments, and every assignment two vectors in each.
std::vector<std::size_t> warm_frame_allocations(const geo::DistanceOracle& oracle,
                                                std::size_t orders, std::size_t drivers,
                                                double extent) {
  const DispatchConfig config =
      DispatchConfig{}.with_passenger_threshold_km(extent / 4).with_taxi_threshold_score(1.0);
  DispatchSession session("nstd-p", config, oracle);
  Rng rng(4242);
  std::vector<api::FrameRequest> frames;
  for (int f = 0; f < kFrames; ++f) {
    frames.push_back(make_frame(rng, static_cast<std::uint64_t>(f), orders, drivers, extent));
  }
  // Three laps warm every buffer (and every pool worker's thread-local
  // state) for these frame shapes; the fourth is measured.
  constexpr std::uint64_t kLaps = 4;
  std::vector<std::size_t> counts;
  for (std::uint64_t lap = 0; lap < kLaps; ++lap) {
    for (const api::FrameRequest& frame : frames) {
      const api::FrameRequest request = shifted(frame, lap);
      std::string error;
      const std::size_t before = g_allocations.load();
      const std::optional<api::FrameResponse> response = session.dispatch(request, &error);
      const std::size_t made = g_allocations.load() - before;
      EXPECT_TRUE(response.has_value()) << error;
      if (!response || lap + 1 < kLaps) continue;
      const std::size_t assignments = response->assignments.size();
      EXPECT_GT(assignments, 0u);
      const std::size_t response_own = assignments == 0 ? 0 : 2 * (1 + 2 * assignments);
      counts.push_back(made - response_own);
    }
  }
  return counts;
}

/// Every warm frame stays within kWarmFrameBound, and the fixed cost (the
/// smallest frame's count) is the same at N and at 2N. A lane's arena can
/// still grow, once, in a frame where the pool happens to hand that lane
/// more rows than it ever took before, which is why frames are compared
/// by their floor.
void expect_fixed_warm_cost(const geo::DistanceOracle& oracle, double extent) {
  const std::vector<std::size_t> at_n = warm_frame_allocations(oracle, 80, 60, extent);
  const std::vector<std::size_t> at_2n = warm_frame_allocations(oracle, 160, 120, extent);
  ASSERT_EQ(at_n.size(), static_cast<std::size_t>(kFrames));
  ASSERT_EQ(at_2n.size(), at_n.size());
  for (std::size_t f = 0; f < at_n.size(); ++f) {
    EXPECT_LE(at_n[f], kWarmFrameBound) << "frame " << f;
    EXPECT_LE(at_2n[f], kWarmFrameBound) << "frame " << f << " at 2N";
  }
  EXPECT_EQ(*std::min_element(at_2n.begin(), at_2n.end()),
            *std::min_element(at_n.begin(), at_n.end()));
}

TEST(WarmFrame, EuclideanAllocationsAreFixedAndSmall) {
  const geo::EuclideanOracle oracle;
  expect_fixed_warm_cost(oracle, 10.0);
}

TEST(WarmFrame, RoadNetworkAllocationsAreFixedAndSmall) {
  const geo::RoadNetwork city =
      geo::RoadNetwork::make_grid_city(11, 11, 1.0, /*jitter_km=*/0.2,
                                       /*closure_fraction=*/0.1, /*seed=*/61);
  const geo::NetworkOracle oracle(city);
  expect_fixed_warm_cost(oracle, 10.0);
}

}  // namespace
}  // namespace o2o::service
