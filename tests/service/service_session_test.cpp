// Streaming-vs-batch differential proof obligations: a full synthetic
// day replayed through the service — wire codec, ingestion ring, and
// DispatchSession — must reproduce the batch Simulator's report bit for
// bit, with the incremental knobs (cross-frame cache, persisted
// candidates, warm-started DA, incremental grid) all off and all on.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/dispatch_config.h"
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

DispatchConfig tuned_config(bool incremental) {
  return DispatchConfig{}
      .with_passenger_threshold_km(8.0)
      .with_taxi_threshold_score(6.0)
      .with_detour_threshold_km(5.0)
      .with_cancel_timeout_seconds(1800.0)
      .with_cross_frame_cache(incremental)
      .with_persist_candidates(incremental)
      .with_warm_start_da(incremental)
      .with_incremental_grid(incremental);
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

/// Streams every frame through the wire codec AND the ingestion ring —
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

void session_differential(std::string_view kind, bool incremental) {
  const DispatchConfig config = tuned_config(incremental);
  const sim::SimulationReport batch = batch_run(kind, config);

  DispatchSession session(kind, config, kOracle);
  const ReplayResult streamed =
      replay_day(busy_city_trace(), fleet_of(30), kOracle, config,
                 codec_round_trip_server(session), kind);

  EXPECT_GT(streamed.frames_served, 0u);
  expect_identical(batch, streamed.report);
}

void ring_differential(std::string_view kind, bool incremental) {
  const DispatchConfig config = tuned_config(incremental);
  const sim::SimulationReport batch = batch_run(kind, config);

  StreamingService service(kind, config, kOracle);
  const ReplayResult streamed = replay_day(busy_city_trace(), fleet_of(30), kOracle,
                                           config, ring_codec_server(service), kind);

  EXPECT_GT(streamed.frames_served, 0u);
  expect_identical(batch, streamed.report);
}

TEST(StreamingSession, NonSharingMatchesBatchCold) {
  session_differential("nstd-p", /*incremental=*/false);
}

TEST(StreamingSession, NonSharingMatchesBatchIncremental) {
  session_differential("nstd-p", /*incremental=*/true);
}

TEST(StreamingSession, SharingMatchesBatchCold) {
  session_differential("std-p", /*incremental=*/false);
}

TEST(StreamingSession, SharingMatchesBatchIncremental) {
  session_differential("std-p", /*incremental=*/true);
}

TEST(StreamingSession, RingPathNonSharingMatchesBatch) {
  ring_differential("nstd-p", /*incremental=*/true);
}

TEST(StreamingSession, RingPathSharingMatchesBatch) {
  ring_differential("std-p", /*incremental=*/true);
}

TEST(StreamingSession, ResetDropsCrossFrameState) {
  const DispatchConfig config = tuned_config(/*incremental=*/true);
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

  std::string error;
  EXPECT_FALSE(DispatchSession::validate(request, &error));
  EXPECT_NE(error.find("order_id 7"), std::string::npos) << error;

  DispatchSession session("nstd-p", tuned_config(false), kOracle);
  error.clear();
  EXPECT_FALSE(session.dispatch(request, &error).has_value());
  EXPECT_FALSE(error.empty());

  request.orders = {a, b};
  request.drivers = {driver, driver};
  EXPECT_FALSE(DispatchSession::validate(request, &error));
  EXPECT_NE(error.find("driver_id 1"), std::string::npos) << error;

  // With the duplicates gone the same session serves the frame.
  request.drivers = {driver};
  EXPECT_TRUE(DispatchSession::validate(request));
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
  ASSERT_TRUE(DispatchSession::validate(request));

  DispatchSession session("std-p", tuned_config(false), kOracle);
  std::string error;
  for (const int seats : {-3, 0}) {
    request.orders[0].seats = seats;
    EXPECT_FALSE(DispatchSession::validate(request, &error)) << seats;
    EXPECT_NE(error.find("invalid seats " + std::to_string(seats) + " on order_id 7"),
              std::string::npos)
        << error;
    error.clear();
    EXPECT_FALSE(session.dispatch(request, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
  request.orders[0].seats = 1;

  for (const int in_use : {5, -1}) {
    request.drivers[0].seats_in_use = in_use;
    EXPECT_FALSE(DispatchSession::validate(request, &error)) << in_use;
    EXPECT_NE(error.find("invalid seats_in_use " + std::to_string(in_use) + " on driver_id 3"),
              std::string::npos)
        << error;
  }
  // The boundaries themselves are valid: a full taxi and an empty one.
  for (const int in_use : {4, 0}) {
    request.drivers[0].seats_in_use = in_use;
    EXPECT_TRUE(DispatchSession::validate(request, &error)) << error;
  }
  EXPECT_TRUE(session.dispatch(request).has_value());
}

}  // namespace
}  // namespace o2o::service
