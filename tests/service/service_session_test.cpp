// Streaming-vs-batch differential proof obligations: a full synthetic
// day replayed through the service — wire codec, frame handoff, and
// DispatchSession — must reproduce the batch Simulator's report bit for
// bit, with warm-started DA off and on. The share-group cache and its
// persisted candidate lists are always on: both sides carry one across
// frames.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dispatch_config.h"
#include "obs/obs.h"
#include "service/codec.h"
#include "service/replay.h"
#include "service/service.h"
#include "service/session.h"
#include "sim/simulator.h"
#include "trace/fleet.h"
#include "trace/synthetic.h"
#include "util/contracts.h"

namespace o2o::service {
namespace {

const geo::EuclideanOracle kOracle;

trace::Trace busy_city_trace() {
  trace::CityModel model = trace::CityModel::boston();
  model.base_rate_per_hour = 200.0;
  trace::GenerationOptions options;
  options.duration_seconds = 3600.0;
  options.start_hour = 18.0;
  options.seed = 60601;
  options.max_seats = 2;
  return trace::generate(model, options);
}

std::vector<trace::Taxi> fleet_of(std::size_t count) {
  trace::FleetOptions options;
  options.taxi_count = count;
  options.seed = 11;
  return trace::make_fleet(geo::Rect{{-10, -10}, {10, 10}}, options);
}

DispatchConfig tuned_config(bool warm_start) {
  return DispatchConfig{}
      .with_passenger_threshold_km(8.0)
      .with_taxi_threshold_score(6.0)
      .with_detour_threshold_km(5.0)
      .with_cancel_timeout_seconds(1800.0)
      .with_warm_start_da(warm_start);
}

void expect_identical(const sim::SimulationReport& a, const sim::SimulationReport& b) {
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_DOUBLE_EQ(a.total_taxi_distance_km, b.total_taxi_distance_km);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const sim::RequestRecord& ra = a.requests[i];
    const sim::RequestRecord& rb = b.requests[i];
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.dispatch_time, rb.dispatch_time) << "request " << ra.id;
    EXPECT_EQ(ra.pickup_time, rb.pickup_time) << "request " << ra.id;
    EXPECT_EQ(ra.dropoff_time, rb.dropoff_time) << "request " << ra.id;
    EXPECT_EQ(ra.shared, rb.shared) << "request " << ra.id;
    EXPECT_EQ(ra.cancelled, rb.cancelled) << "request " << ra.id;
    EXPECT_EQ(ra.passenger_dissatisfaction_km, rb.passenger_dissatisfaction_km);
  }
}

sim::SimulationReport batch_run(std::string_view kind, const DispatchConfig& config) {
  const auto dispatcher = make_dispatcher(kind, config);
  const trace::Trace city = busy_city_trace();  // must outlive the simulator
  sim::Simulator simulator(city, fleet_of(30), kOracle, config.simulation());
  return simulator.run(*dispatcher);
}

/// Streams every frame through the wire codec AND the service's frame handoff —
/// the exact path a remote ndjson client exercises.
ServeFrameFn ring_codec_server(StreamingService& service) {
  return [&service](const api::FrameRequest& request) {
    for (const std::string& line : encode_frame_events(request)) {
      const auto event = decode_event(line);
      O2O_EXPECTS(event.has_value());
      service.submit(*event);
    }
    const auto response = service.next_response();
    O2O_EXPECTS(response.has_value());
    const auto decoded = decode_response(encode_response(*response));
    O2O_EXPECTS(decoded.has_value());
    return *decoded;
  };
}

void session_differential(std::string_view kind, bool warm_start) {
  const DispatchConfig config = tuned_config(warm_start);
  const sim::SimulationReport batch = batch_run(kind, config);

  DispatchSession session(kind, config, kOracle);
  const ReplayResult streamed =
      replay_day(busy_city_trace(), fleet_of(30), kOracle, config,
                 codec_round_trip_server(session), kind);

  EXPECT_GT(streamed.frames_served, 0u);
  expect_identical(batch, streamed.report);
}

void ring_differential(std::string_view kind, bool warm_start) {
  const DispatchConfig config = tuned_config(warm_start);
  const sim::SimulationReport batch = batch_run(kind, config);

  StreamingService service(kind, config, kOracle);
  const ReplayResult streamed = replay_day(busy_city_trace(), fleet_of(30), kOracle,
                                           config, ring_codec_server(service), kind);

  EXPECT_GT(streamed.frames_served, 0u);
  expect_identical(batch, streamed.report);
}

TEST(StreamingSession, NonSharingMatchesBatchCold) {
  session_differential("nstd-p", /*warm_start=*/false);
}

TEST(StreamingSession, NonSharingMatchesBatchWarmStart) {
  session_differential("nstd-p", /*warm_start=*/true);
}

TEST(StreamingSession, SharingMatchesBatchCold) {
  session_differential("std-p", /*warm_start=*/false);
}

TEST(StreamingSession, SharingMatchesBatchWarmStart) {
  session_differential("std-p", /*warm_start=*/true);
}

TEST(StreamingSession, RingPathNonSharingMatchesBatch) {
  ring_differential("nstd-p", /*warm_start=*/true);
}

TEST(StreamingSession, RingPathSharingMatchesBatch) {
  ring_differential("std-p", /*warm_start=*/true);
}

TEST(StreamingSession, ResetDropsCrossFrameState) {
  const DispatchConfig config = tuned_config(/*warm_start=*/true);
  DispatchSession session("std-p", config, kOracle);

  const ReplayResult first =
      replay_day(busy_city_trace(), fleet_of(30), kOracle, config,
                 codec_round_trip_server(session), "std-p");
  session.reset();
  const ReplayResult second =
      replay_day(busy_city_trace(), fleet_of(30), kOracle, config,
                 codec_round_trip_server(session), "std-p");

  EXPECT_EQ(first.frames_served, second.frames_served);
  expect_identical(first.report, second.report);
}

TEST(StreamingSession, SessionNamesTheDispatcher) {
  const DispatchSession session("nstd-t", tuned_config(false), kOracle);
  EXPECT_FALSE(session.dispatcher_name().empty());
  EXPECT_EQ(session.config().service().pipeline_depth, 1u);
}

TEST(StreamingSession, DuplicateIdsFailValidationInsteadOfAborting) {
  api::FrameRequest request;
  request.frame = 0;
  request.timestamp = 60.0;
  // Same order id at *different* timestamps: the ids are not adjacent in
  // the canonical (timestamp, id) barrier order, so a naive adjacency
  // scan would miss them.
  api::Order a;
  a.order_id = 7;
  a.timestamp = 10.0;
  api::Order b;
  b.order_id = 8;
  b.timestamp = 15.0;
  api::Order c = a;
  c.timestamp = 20.0;
  request.orders = {a, b, c};
  api::Driver driver;
  driver.driver_id = 1;
  request.drivers = {driver};

  DispatchSession session("nstd-p", tuned_config(false), kOracle);
  std::string error;
  EXPECT_FALSE(session.validate(request, &error));
  EXPECT_NE(error.find("order_id 7"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(session.dispatch(request, &error).has_value());
  EXPECT_FALSE(error.empty());

  request.orders = {a, b};
  request.drivers = {driver, driver};
  EXPECT_FALSE(session.validate(request, &error));
  EXPECT_NE(error.find("driver_id 1"), std::string::npos) << error;

  // With the duplicates gone the same session serves the frame.
  request.drivers = {driver};
  EXPECT_TRUE(session.validate(request));
  EXPECT_TRUE(session.dispatch(request).has_value());
}

TEST(StreamingSession, OutOfRangeSeatValuesFailValidation) {
  api::FrameRequest request;
  request.timestamp = 60.0;
  api::Order order;
  order.order_id = 7;
  order.timestamp = 10.0;
  order.finish = {2.0, 2.0};
  api::Driver driver;
  driver.driver_id = 3;
  driver.location = {0.5, 0.5};
  driver.seats = 4;
  request.orders = {order};
  request.drivers = {driver};
  DispatchSession session("std-p", tuned_config(false), kOracle);
  ASSERT_TRUE(session.validate(request));

  std::string error;
  // Seats must lie in [1, taxi_seats]: more than a taxi holds can never
  // be served, and INT_MAX would overflow a group's seat sum.
  for (const int seats : {-3, 0, 5, 9, std::numeric_limits<int>::max()}) {
    request.orders[0].seats = seats;
    EXPECT_FALSE(session.validate(request, &error)) << seats;
    EXPECT_NE(error.find("invalid seats " + std::to_string(seats) +
                         " on order_id 7: must be within [1, taxi_seats = 4]"),
              std::string::npos)
        << error;
    error.clear();
    EXPECT_FALSE(session.dispatch(request, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
  for (const int seats : {4, 1}) {
    request.orders[0].seats = seats;
    EXPECT_TRUE(session.validate(request, &error)) << error;
  }

  for (const int in_use : {5, -1}) {
    request.drivers[0].seats_in_use = in_use;
    EXPECT_FALSE(session.validate(request, &error)) << in_use;
    EXPECT_NE(error.find("invalid seats_in_use " + std::to_string(in_use) + " on driver_id 3"),
              std::string::npos)
        << error;
  }
  // The boundaries themselves are valid: a full taxi (its one rider's
  // drop-off still ahead, as a consistent route state needs) and an
  // empty one.
  api::Driver full = driver;
  full.seats_in_use = 4;
  full.route = {api::DriverStop{50, false, {1.0, 1.0}}};
  full.onboard = {50};
  full.route_seats = {{50, 4}};
  request.drivers[0] = full;
  EXPECT_TRUE(session.validate(request, &error)) << error;
  request.drivers[0] = driver;
  EXPECT_TRUE(session.validate(request, &error)) << error;
  EXPECT_TRUE(session.dispatch(request).has_value());

  // A driver's own seats must be at least 1: a seatless taxi could never
  // be assigned, and the check comes before seats_in_use's range.
  for (const int seats : {0, -5, std::numeric_limits<int>::min()}) {
    request.drivers[0].seats = seats;
    EXPECT_FALSE(session.validate(request, &error)) << seats;
    EXPECT_NE(error.find("invalid seats " + std::to_string(seats) +
                         " on driver_id 3: must be at least 1"),
              std::string::npos)
        << error;
    error.clear();
    EXPECT_FALSE(session.dispatch(request, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
  request.drivers[0].seats = 1;
  EXPECT_TRUE(session.validate(request, &error)) << error;
  EXPECT_TRUE(session.dispatch(request).has_value());
  request.drivers[0].seats = 4;

  // Two INT_MAX-seat orders beside an INT_MAX-seat driver: pooled, their
  // seat sum would overflow int and pass the capacity checks, so the
  // frame must be rejected before any dispatcher groups it.
  api::FrameRequest overflow;
  overflow.timestamp = 60.0;
  for (int i = 0; i < 2; ++i) {
    api::Order big;
    big.order_id = i + 1;
    big.start = {0.1 * i, 0.0};
    big.finish = {2.0 + 0.1 * i, 2.0};
    big.seats = std::numeric_limits<int>::max();
    overflow.orders.push_back(big);
  }
  api::Driver big_taxi;
  big_taxi.driver_id = 7;
  big_taxi.location = {0.5, 0.5};
  big_taxi.seats = std::numeric_limits<int>::max();
  overflow.drivers = {big_taxi};
  for (const char* kind : {"nstd-p", "nstd-t", "std-p", "std-t"}) {
    DispatchSession fresh(kind, DispatchConfig{}, kOracle);
    error.clear();
    EXPECT_FALSE(fresh.dispatch(overflow, &error).has_value()) << kind;
    EXPECT_NE(error.find("invalid seats 2147483647 on order_id 1"), std::string::npos)
        << kind << ": " << error;
  }
}

// A driver's route, onboard list, route_seats and seats_in_use must
// describe one state; otherwise the frame is rejected, not dispatched as
// if the driver were idle.
TEST(StreamingSession, InconsistentRouteStatesFailValidation) {
  api::FrameRequest request;
  request.timestamp = 60.0;
  api::Order order;
  order.order_id = 7;
  order.timestamp = 10.0;
  order.finish = {2.0, 2.0};
  request.orders = {order};
  // Rider 50 (2 seats) is onboard; rider 60 (1 seat) still waits.
  api::Driver busy;
  busy.driver_id = 3;
  busy.location = {0.5, 0.5};
  busy.seats = 4;
  busy.seats_in_use = 2;
  busy.route = {api::DriverStop{60, true, {1.0, 1.0}}, api::DriverStop{50, false, {2.0, 2.0}},
                api::DriverStop{60, false, {3.0, 3.0}}};
  busy.onboard = {50};
  busy.route_seats = {{60, 1}, {50, 2}};
  request.drivers = {busy};
  for (const char* kind : {"nstd-p", "nstd-t", "std-p", "std-t"}) {
    DispatchSession session(kind, tuned_config(false), kOracle);
    std::string error;
    EXPECT_TRUE(session.validate(request, &error)) << kind << ": " << error;
    EXPECT_TRUE(session.dispatch(request).has_value()) << kind;
  }

  const auto idle = [&busy] {
    api::Driver driver = busy;
    driver.route.clear();
    driver.onboard.clear();
    driver.route_seats.clear();
    driver.seats_in_use = 0;
    return driver;
  };
  std::vector<std::pair<const char*, api::Driver>> broken;
  broken.emplace_back("idle with seats in use", idle());
  broken.back().second.seats_in_use = 2;
  broken.emplace_back("idle with an onboard order", idle());
  broken.back().second.onboard = {50};
  broken.emplace_back("idle with route_seats", idle());
  broken.back().second.route_seats = {{50, 2}};
  broken.emplace_back("route_seats misses a routed order", busy);
  broken.back().second.route_seats = {{50, 2}};
  broken.emplace_back("route_seats lists an order twice", busy);
  broken.back().second.route_seats.emplace_back(50, 2);
  broken.emplace_back("route_seats lists an unrouted order", busy);
  broken.back().second.route_seats.emplace_back(70, 1);
  broken.emplace_back("an order without a drop-off", busy);
  broken.back().second.route.pop_back();
  broken.emplace_back("an order with two drop-offs", busy);
  broken.back().second.route.push_back(api::DriverStop{50, false, {4.0, 4.0}});
  broken.emplace_back("onboard misses an order without a pick-up", busy);
  broken.back().second.onboard.clear();
  broken.back().second.seats_in_use = 0;
  broken.emplace_back("onboard lists an order still to be picked up", busy);
  broken.back().second.onboard = {50, 60};
  broken.back().second.seats_in_use = 3;
  broken.emplace_back("onboard lists an order twice", busy);
  broken.back().second.onboard = {50, 50};
  broken.emplace_back("seats_in_use is not the onboard seat sum", busy);
  broken.back().second.seats_in_use = 3;

  for (const auto& [what, driver] : broken) {
    request.drivers = {driver};
    for (const char* kind : {"nstd-p", "nstd-t", "std-p", "std-t"}) {
      DispatchSession session(kind, tuned_config(false), kOracle);
      std::string error;
      EXPECT_FALSE(session.validate(request, &error)) << what << ", " << kind;
      EXPECT_EQ(error.rfind("invalid route state", 0), 0u) << what << ": " << error;
      EXPECT_NE(error.find("on driver_id 3"), std::string::npos) << what << ": " << error;
      error.clear();
      EXPECT_FALSE(session.dispatch(request, &error).has_value()) << what << ", " << kind;
      EXPECT_FALSE(error.empty()) << what;
    }
  }
}

TEST(StreamingSession, OrdersStampedAfterTheirFrameFailValidation) {
  api::FrameRequest request;
  request.frame = 4;
  request.timestamp = 60.0;
  api::Order order;
  order.order_id = 7;
  order.finish = {2.0, 2.0};
  api::Driver driver;
  driver.driver_id = 3;
  driver.location = {0.5, 0.5};
  request.drivers = {driver};

  std::string error;
  for (const double stamp :
       {1e300, 60.5, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), std::numeric_limits<double>::quiet_NaN()}) {
    request.orders = {order};
    request.orders[0].timestamp = stamp;
    for (const char* kind : {"nstd-p", "nstd-t", "std-p", "std-t"}) {
      DispatchSession session(kind, tuned_config(false), kOracle);
      error.clear();
      EXPECT_FALSE(session.dispatch(request, &error).has_value()) << kind << " " << stamp;
      EXPECT_NE(error.find("invalid timestamp"), std::string::npos) << error;
      EXPECT_NE(error.find("on order_id 7: must be finite and at or before the frame's "
                           "timestamp 60"),
                std::string::npos)
          << error;
    }
  }
  // An order stamped at its frame's own time, or any time before, is fine.
  DispatchSession session("std-p", tuned_config(false), kOracle);
  for (const double stamp : {60.0, -5.0, 0.0}) {
    request.orders[0].timestamp = stamp;
    EXPECT_TRUE(session.validate(request, &error)) << error;
  }
  EXPECT_TRUE(session.dispatch(request).has_value());
}

TEST(StreamingSession, FarApartDriversStillGetAFrameResponse) {
  // Drivers 90,000 km apart once sized the idle grid by their distance
  // (bad_alloc), and a lone driver at 1e18 km once got an idle grid of
  // zero extent (its ulp swallowed the pad); each frame must be answered
  // like any other. At the default tau_p = infinity the lone driver is
  // still an acceptable match.
  api::Driver near;
  near.driver_id = 7;
  near.location = {0.5, 0.5};
  api::Driver far = near;
  far.driver_id = 8;
  far.location = {90000.0, 90000.0};
  api::Driver farthest = near;
  farthest.driver_id = 8;
  farthest.location = {1e18, 1e18};
  const std::vector<std::pair<std::vector<api::Driver>, api::DriverId>> inputs{
      {{near, far}, 7}, {{farthest}, 8}};
  for (const auto& [drivers, matched] : inputs) {
    api::FrameRequest request;
    request.timestamp = 60.0;
    api::Order order;
    order.order_id = 1;
    order.finish = {2.0, 2.0};
    request.orders = {order};
    request.drivers = drivers;
    for (const char* kind : {"nstd-p", "nstd-t", "std-p", "std-t"}) {
      DispatchSession session(kind, DispatchConfig{}, kOracle);
      std::string error;
      const auto response = session.dispatch(request, &error);
      ASSERT_TRUE(response.has_value()) << kind << ": " << error;
      ASSERT_EQ(response->assignments.size(), 1u) << kind;
      EXPECT_EQ(response->assignments[0].driver_id, matched) << kind;
      EXPECT_EQ(response->assignments[0].order_ids, (std::vector<api::OrderId>{1})) << kind;
    }
  }
}

/// A small sharing frame at `timestamp`: six riders heading the same
/// way from neighbouring pickups, three idle drivers nearby.
api::FrameRequest sharing_frame(std::uint64_t frame, double timestamp) {
  api::FrameRequest request;
  request.frame = frame;
  request.timestamp = timestamp;
  for (int i = 0; i < 6; ++i) {
    api::Order order;
    order.order_id = i + 1;
    order.timestamp = 10.0 + i;
    order.start = {0.1 * i, 0.0};
    order.finish = {4.0 + 0.1 * i, 0.2};
    request.orders.push_back(order);
  }
  for (int i = 0; i < 3; ++i) {
    api::Driver driver;
    driver.driver_id = 100 + i;
    driver.location = {0.2 * i, 0.3};
    driver.seats = 4;
    request.drivers.push_back(driver);
  }
  return request;
}

// Order ids span all of int32: the sharing dispatchers key their
// persistent pick-up grid by order id, and a frame whose ids include the
// int32 extremes is matched exactly like one with small ids in the same
// order, cold and warm.
TEST(StreamingSession, Int32ExtremeOrderIdsAreDispatchedLikeAnyOther) {
  constexpr api::OrderId kMin = std::numeric_limits<api::OrderId>::min();
  constexpr api::OrderId kMax = std::numeric_limits<api::OrderId>::max();
  const auto extreme = [&](api::FrameRequest request) {
    request.orders.front().order_id = kMin;
    request.orders.back().order_id = kMax;
    return request;
  };
  const auto small_id = [&](api::OrderId id) {
    return id == kMin ? 1 : id == kMax ? static_cast<api::OrderId>(6) : id;
  };
  for (const char* kind : {"std-p", "std-t"}) {
    DispatchSession plain(kind, tuned_config(true), kOracle);
    DispatchSession wide(kind, tuned_config(true), kOracle);
    for (std::uint64_t frame = 0; frame < 2; ++frame) {
      const double timestamp = 60.0 * static_cast<double>(frame + 1);
      std::string error;
      const auto expected = plain.dispatch(sharing_frame(frame, timestamp), &error);
      ASSERT_TRUE(expected.has_value()) << kind << ": " << error;
      auto served = wide.dispatch(extreme(sharing_frame(frame, timestamp)), &error);
      ASSERT_TRUE(served.has_value()) << kind << ": " << error;
      ASSERT_FALSE(served->assignments.empty()) << kind;
      for (api::Assignment& assignment : served->assignments) {
        for (api::OrderId& id : assignment.order_ids) id = small_id(id);
        for (api::DriverStop& stop : assignment.route) stop.order_id = small_id(stop.order_id);
      }
      EXPECT_EQ(*served, *expected) << kind << " frame " << frame;
    }
  }
}

TEST(StreamingSession, BackwardTimestampFailsValidation) {
  DispatchSession session("nstd-p", tuned_config(false), kOracle);
  ASSERT_TRUE(session.dispatch(sharing_frame(0, 60.0)).has_value());

  const api::FrameRequest backward = sharing_frame(1, 10.0);
  std::string error;
  EXPECT_FALSE(session.validate(backward, &error));
  EXPECT_NE(error.find("non-monotonic timestamp 10 in frame 1"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(session.dispatch(backward, &error).has_value());
  EXPECT_NE(error.find("last dispatched frame was at 60"), std::string::npos) << error;

  // The rejected frame left no trace: the stream continues from 60.
  EXPECT_TRUE(session.dispatch(sharing_frame(2, 120.0)).has_value());
}

TEST(StreamingSession, EqualTimestampsPassValidation) {
  DispatchSession session("std-p", tuned_config(false), kOracle);
  const api::FrameRequest frame = sharing_frame(0, 60.0);
  ASSERT_TRUE(session.dispatch(frame).has_value());
  std::string error;
  EXPECT_TRUE(session.validate(frame, &error)) << error;
  EXPECT_TRUE(session.dispatch(frame).has_value());
}

TEST(StreamingSession, FirstFrameAfterResetRunsCold) {
  DispatchSession session("std-p", tuned_config(true), kOracle);
  obs::TraceSink sink;
  obs::Activation guard(sink);
  const auto cache_hits = [&](const api::FrameRequest& frame) {
    sink.begin_frame(frame.frame, frame.timestamp);
    EXPECT_TRUE(session.dispatch(frame).has_value());
    return sink.end_frame().counters[static_cast<std::size_t>(obs::Counter::kGroupCacheHits)];
  };

  EXPECT_EQ(cache_hits(sharing_frame(0, 60.0)), 0u);
  // The same riders one frame later replay their share-group verdicts.
  EXPECT_GT(cache_hits(sharing_frame(1, 120.0)), 0u);

  // reset() drops the GroupCache and the last timestamp: the replayed
  // first frame is accepted and answered from an empty cache.
  session.reset();
  EXPECT_EQ(cache_hits(sharing_frame(0, 60.0)), 0u);
}

}  // namespace
}  // namespace o2o::service
