// Plain-timer harness for the streaming service stack: how much latency
// do the api conversion layer and the wire codec + frame handoff add on
// top of a raw batch dispatch call, and what frame rate does each path
// sustain at city-scale frame sizes?
//
//   ./build/bench/micro_service [--quick] [--frames=N] [--dispatcher=KIND]
//
// Three arms, identical frame content:
//   batch    raw Dispatcher::dispatch on a hand-built DispatchContext
//   session  DispatchSession::dispatch (api structs in, api structs out)
//   service  full wire path: encode ndjson -> decode -> StreamingService
//            frame handoff -> session -> encode response -> decode
// Reported per arm and frame size: frames/sec plus p50/p99 frame latency
// over the run (first frame included — cold caches are part of life).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dispatch_config.h"
#include "geo/backend.h"
#include "index/spatial_grid.h"
#include "service/api.h"
#include "service/codec.h"
#include "service/service.h"
#include "service/session.h"
#include "sim/dispatcher.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace o2o;

// Resolved through the backend factory; the default spec is the paper's
// Euclidean surface. kBackend owns the oracle kOracle refers to.
const geo::DistanceBackend kBackend = geo::make_distance_oracle({});
const geo::DistanceOracle& kOracle = *kBackend.oracle;

constexpr double kExtentKm = 40.0;

std::vector<trace::Request> make_requests(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<trace::Request> requests;
  requests.reserve(count);
  for (std::size_t r = 0; r < count; ++r) {
    trace::Request request;
    request.id = static_cast<trace::RequestId>(r);
    request.time_seconds = static_cast<double>(r % 60);
    request.pickup = {rng.uniform(0, kExtentKm), rng.uniform(0, kExtentKm)};
    const double angle = rng.uniform(0.0, 6.283185307179586);
    const double trip = rng.uniform(1.0, 4.0);
    request.dropoff = {request.pickup.x + trip * std::cos(angle),
                       request.pickup.y + trip * std::sin(angle)};
    requests.push_back(request);
  }
  return requests;
}

std::vector<trace::Taxi> make_taxis(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<trace::Taxi> taxis;
  taxis.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    trace::Taxi taxi;
    taxi.id = static_cast<trace::TaxiId>(t);
    taxi.location = {rng.uniform(0, kExtentKm), rng.uniform(0, kExtentKm)};
    taxis.push_back(taxi);
  }
  return taxis;
}

DispatchConfig bench_config() {
  return DispatchConfig{}
      .with_passenger_threshold_km(3.0)
      .with_taxi_threshold_score(6.0)
      .with_detour_threshold_km(2.0);
}

api::FrameRequest to_api_frame(const std::vector<trace::Request>& requests,
                               const std::vector<trace::Taxi>& taxis) {
  api::FrameRequest frame;
  frame.frame = 0;
  frame.timestamp = 60.0;
  frame.orders.reserve(requests.size());
  for (const trace::Request& request : requests) {
    api::Order order;
    order.order_id = request.id;
    order.timestamp = request.time_seconds;
    order.start = request.pickup;
    order.finish = request.dropoff;
    order.seats = request.seats;
    frame.orders.push_back(order);
  }
  frame.drivers.reserve(taxis.size());
  for (const trace::Taxi& taxi : taxis) {
    api::Driver driver;
    driver.driver_id = taxi.id;
    driver.location = taxi.location;
    driver.seats = taxi.seats;
    frame.drivers.push_back(driver);
  }
  return frame;
}

struct ArmResult {
  double frames_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t assignments = 0;  ///< sanity: all arms must agree
};

ArmResult summarize(std::vector<double> latencies_ms, std::size_t assignments) {
  ArmResult result;
  double total_ms = 0.0;
  for (const double ms : latencies_ms) total_ms += ms;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const std::size_t n = latencies_ms.size();
  result.frames_per_sec = n / (total_ms / 1e3);
  result.p50_ms = latencies_ms[n / 2];
  result.p99_ms = latencies_ms[std::min(n - 1, (n * 99) / 100)];
  result.assignments = assignments;
  return result;
}

template <typename FrameFn>
ArmResult run_arm(int frames, FrameFn&& run_frame) {
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(frames));
  std::size_t assignments = 0;
  for (int f = 0; f < frames; ++f) {
    const auto start = std::chrono::steady_clock::now();
    assignments = run_frame();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    latencies_ms.push_back(std::chrono::duration<double, std::milli>(elapsed).count());
  }
  return summarize(std::move(latencies_ms), assignments);
}

ArmResult bench_batch(const std::string& kind, std::vector<trace::Request> requests,
                      const std::vector<trace::Taxi>& taxis, int frames) {
  const DispatchConfig config = bench_config();
  const auto dispatcher = make_dispatcher(kind, config);
  O2O_EXPECTS(dispatcher != nullptr);
  // DispatchSession presents orders in its canonical (timestamp, id)
  // order; the batch arm must see the same order to make the same match.
  std::sort(requests.begin(), requests.end(),
            [](const trace::Request& a, const trace::Request& b) {
              return a.time_seconds != b.time_seconds ? a.time_seconds < b.time_seconds
                                                      : a.id < b.id;
            });
  return run_arm(frames, [&] {
    // Grid construction is part of the frame, as in the simulator.
    index::SpatialGrid grid(taxis, config.simulation().idle_grid_cell_km);
    sim::DispatchContext context;
    context.now_seconds = 60.0;
    context.idle_taxis = taxis;
    context.pending = requests;
    context.oracle = &kOracle;
    context.idle_grid = &grid;
    std::size_t assigned = 0;
    for (const auto& assignment : dispatcher->dispatch(context)) {
      assigned += assignment.requests.size();
    }
    return assigned;
  });
}

ArmResult bench_session(const std::string& kind, const api::FrameRequest& frame,
                        int frames) {
  service::DispatchSession session(kind, bench_config(), kOracle);
  return run_arm(frames, [&] {
    std::size_t assigned = 0;
    const auto response = session.dispatch(frame);
    for (const auto& assignment : response->assignments) {
      assigned += assignment.order_ids.size();
    }
    return assigned;
  });
}

ArmResult bench_service(const std::string& kind, const api::FrameRequest& frame,
                        int frames) {
  service::StreamingService svc(kind, bench_config(), kOracle);
  // The reader's path in o2o_serve: every line decodes into one event,
  // and submit() moves it in and hands back a recycled driver.
  api::RideEvent event;
  return run_arm(frames, [&] {
    for (const std::string& line : service::encode_frame_events(frame)) {
      const bool parsed = service::decode_event_into(line, event);
      O2O_EXPECTS(parsed);
      svc.submit(std::move(event));
    }
    const auto response = svc.next_response();
    O2O_EXPECTS(response.has_value());
    const auto decoded = service::decode_response(service::encode_response(*response));
    O2O_EXPECTS(decoded.has_value());
    std::size_t assigned = 0;
    for (const auto& assignment : decoded->assignments) {
      assigned += assignment.order_ids.size();
    }
    return assigned;
  });
}

void print_arm(const char* arm, std::size_t orders, const ArmResult& result) {
  std::printf("  %-8s orders=%5zu  %8.1f frames/s  p50=%8.3f ms  p99=%8.3f ms  "
              "(assigned %zu)\n",
              arm, orders, result.frames_per_sec, result.p50_ms, result.p99_ms,
              result.assignments);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int frames = 50;
  std::string kind = "nstd-p";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(arg, "--frames=", 9) == 0) {
      frames = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--dispatcher=", 13) == 0) {
      kind = arg + 13;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }
  if (quick) frames = std::min(frames, 8);
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{1000} : std::vector<std::size_t>{1000, 2000, 5000};

  std::printf("micro_service: %s, %d frames per arm\n", kind.c_str(), frames);
  for (const std::size_t orders : sizes) {
    const std::size_t taxis = orders / 2;
    const auto requests = make_requests(orders, 7001);
    const auto fleet = make_taxis(taxis, 7002);
    const api::FrameRequest frame = to_api_frame(requests, fleet);

    const ArmResult batch = bench_batch(kind, requests, fleet, frames);
    const ArmResult session = bench_session(kind, frame, frames);
    const ArmResult service = bench_service(kind, frame, frames);
    print_arm("batch", orders, batch);
    print_arm("session", orders, session);
    print_arm("service", orders, service);
    if (batch.assignments != session.assignments ||
        session.assignments != service.assignments) {
      std::fprintf(stderr, "ARM DISAGREEMENT at %zu orders: batch=%zu session=%zu "
                           "service=%zu\n",
                   orders, batch.assignments, session.assignments,
                   service.assignments);
      return 1;
    }
    const double codec_overhead_pct =
        (service.p50_ms - session.p50_ms) / session.p50_ms * 100.0;
    std::printf("  codec+ring p50 overhead vs session: %+.1f%%\n\n",
                codec_overhead_pct);
  }
  return 0;
}
