#include "service/session.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/contracts.h"

namespace o2o::service {
namespace {

/// Fill step of a streamed frame: the api structs converted into the
/// snapshotter's buffers in canonical barrier order. Trace request ids
/// are assigned in time order and fleet ids ascending, so sorting orders
/// by (timestamp, order_id) and drivers by driver_id reproduces exactly
/// the span order the batch simulator fills — the keystone of the
/// streamed-equals-batch bit-identity argument.
void fill_frame(const api::FrameRequest& request, sim::FrameBuffers& frame,
                std::vector<const api::Driver*>& drivers) {
  frame.pending.reserve(request.orders.size());
  for (const api::Order& order : request.orders) {
    trace::Request converted;
    converted.id = order.order_id;
    converted.time_seconds = order.timestamp;
    converted.pickup = order.start;
    converted.dropoff = order.finish;
    converted.seats = order.seats;
    frame.pending.push_back(converted);
  }
  std::sort(frame.pending.begin(), frame.pending.end(),
            [](const trace::Request& a, const trace::Request& b) {
              return a.time_seconds != b.time_seconds ? a.time_seconds < b.time_seconds
                                                      : a.id < b.id;
            });
  drivers.clear();
  for (const api::Driver& driver : request.drivers) drivers.push_back(&driver);
  std::sort(drivers.begin(), drivers.end(),
            [](const api::Driver* a, const api::Driver* b) {
              return a->driver_id < b->driver_id;
            });
  for (const api::Driver* driver : drivers) {
    if (driver->idle()) {
      trace::Taxi taxi;
      taxi.id = driver->driver_id;
      taxi.location = driver->location;
      taxi.seats = driver->seats;
      frame.idle.push_back(taxi);
      continue;
    }
    sim::BusyTaxiView& view = frame.add_busy();
    view.taxi.id = driver->driver_id;
    view.taxi.location = driver->location;
    view.taxi.seats = driver->seats;
    view.seats_in_use = driver->seats_in_use;
    view.onboard.assign(driver->onboard.begin(), driver->onboard.end());
    for (const api::DriverStop& stop : driver->route) {
      view.remaining_stops.push_back(routing::Stop{stop.order_id, stop.is_pickup, stop.point});
    }
    view.route_request_seats.assign(driver->route_seats.begin(), driver->route_seats.end());
  }
}

}  // namespace

DispatchSession::DispatchSession(std::string_view kind, DispatchConfig config,
                                 const geo::DistanceOracle& oracle)
    : config_(std::move(config)),
      oracle_(oracle),
      kind_(kind),
      dispatcher_(make_dispatcher(kind_, config_)),
      snapshotter_(oracle_, config_.simulation().idle_grid_cell_km) {
  O2O_EXPECTS(dispatcher_ != nullptr);
  dispatcher_name_ = dispatcher_->name();
}

void DispatchSession::reset() {
  dispatcher_ = make_dispatcher(kind_, config_);
  snapshotter_.reset();
  last_timestamp_.reset();
}

/// Sorting keeps an absurdly long route O(n log n).
const char* DispatchSession::route_state_error(const api::Driver& driver,
                                               RouteScratch& scratch) {
  if (driver.route.empty()) {
    return driver.seats_in_use != 0 || !driver.onboard.empty() || !driver.route_seats.empty()
               ? "an empty route with seats in use, onboard orders or route_seats"
               : nullptr;
  }
  scratch.stops.clear();
  for (const api::DriverStop& stop : driver.route) {
    scratch.stops.emplace_back(stop.order_id, stop.is_pickup);
  }
  std::sort(scratch.stops.begin(), scratch.stops.end());
  scratch.seats.assign(driver.route_seats.begin(), driver.route_seats.end());
  std::sort(scratch.seats.begin(), scratch.seats.end());
  scratch.onboard.assign(driver.onboard.begin(), driver.onboard.end());
  std::sort(scratch.onboard.begin(), scratch.onboard.end());

  std::size_t seat = 0;
  std::size_t onboard = 0;
  std::int64_t load = 0;
  for (std::size_t i = 0; i < scratch.stops.size();) {
    const api::OrderId order = scratch.stops[i].first;
    std::size_t dropoffs = 0;
    std::size_t pickups = 0;
    for (; i < scratch.stops.size() && scratch.stops[i].first == order; ++i) {
      (scratch.stops[i].second ? pickups : dropoffs) += 1;
    }
    if (dropoffs != 1) return "a routed order without exactly one drop-off";
    if (seat == scratch.seats.size() || scratch.seats[seat].first != order) {
      return "route_seats does not list each routed order exactly once";
    }
    if (pickups == 0) {
      if (onboard == scratch.onboard.size() || scratch.onboard[onboard] != order) {
        return "onboard is not exactly the routed orders without a pick-up";
      }
      ++onboard;
      load += scratch.seats[seat].second;
    }
    ++seat;
  }
  if (seat != scratch.seats.size()) {
    return "route_seats does not list each routed order exactly once";
  }
  if (onboard != scratch.onboard.size()) {
    return "onboard is not exactly the routed orders without a pick-up";
  }
  if (load != driver.seats_in_use) return "seats_in_use is not the onboard orders' seat sum";
  return nullptr;
}

bool DispatchSession::validate(const api::FrameRequest& request, std::string* error) {
  const auto reject = [error](std::string reason) {
    if (error != nullptr) *error = std::move(reason);
    return false;
  };
  if (last_timestamp_ && request.timestamp < *last_timestamp_) {
    char reason[192];
    std::snprintf(reason, sizeof(reason),
                  "non-monotonic timestamp %.17g in frame %llu: the last dispatched frame "
                  "was at %.17g",
                  request.timestamp, static_cast<unsigned long long>(request.frame),
                  *last_timestamp_);
    return reject(reason);
  }
  // Sort id copies rather than scanning adjacency of the barrier order:
  // orders sort by (timestamp, id), so equal ids with distinct
  // timestamps would not be adjacent there.
  std::vector<std::int32_t>& ids = scratch_.ids;
  ids.clear();
  for (const api::Order& order : request.orders) ids.push_back(order.order_id);
  std::sort(ids.begin(), ids.end());
  auto dup = std::adjacent_find(ids.begin(), ids.end());
  if (dup != ids.end()) {
    return reject("duplicate order_id " + std::to_string(*dup) + " in frame");
  }
  ids.clear();
  for (const api::Driver& driver : request.drivers) ids.push_back(driver.driver_id);
  std::sort(ids.begin(), ids.end());
  dup = std::adjacent_find(ids.begin(), ids.end());
  if (dup != ids.end()) {
    return reject("duplicate driver_id " + std::to_string(*dup) + " in frame");
  }
  // An order cannot be placed after the frame that carries it; a
  // non-finite stamp has no place in time at all.
  for (const api::Order& order : request.orders) {
    if (!std::isfinite(order.timestamp) || !(order.timestamp <= request.timestamp)) {
      char reason[192];
      std::snprintf(reason, sizeof(reason),
                    "invalid timestamp %.17g on order_id %d: must be finite and at or before "
                    "the frame's timestamp %.17g",
                    order.timestamp, static_cast<int>(order.order_id), request.timestamp);
      return reject(reason);
    }
  }
  // An order larger than a taxi can never be served, and the seat caps
  // keep every group's seat sum inside int (DispatchConfig::validate).
  const int taxi_seats = config_.sharing_params().taxi_seats;
  for (const api::Order& order : request.orders) {
    if (order.seats < 1 || order.seats > taxi_seats) {
      return reject("invalid seats " + std::to_string(order.seats) + " on order_id " +
                    std::to_string(order.order_id) + ": must be within [1, taxi_seats = " +
                    std::to_string(taxi_seats) + "]");
    }
  }
  for (const api::Driver& driver : request.drivers) {
    // A seatless taxi can never be assigned; checking seats first also
    // keeps the seats_in_use message below from quoting a negative cap.
    if (driver.seats < 1) {
      return reject("invalid seats " + std::to_string(driver.seats) + " on driver_id " +
                    std::to_string(driver.driver_id) + ": must be at least 1");
    }
    if (driver.seats_in_use < 0 || driver.seats_in_use > driver.seats) {
      return reject("invalid seats_in_use " + std::to_string(driver.seats_in_use) +
                    " on driver_id " + std::to_string(driver.driver_id) +
                    ": must be within [0, seats = " + std::to_string(driver.seats) + "]");
    }
    if (const char* why = route_state_error(driver, scratch_.route)) {
      return reject(std::string("invalid route state (") + why + ") on driver_id " +
                    std::to_string(driver.driver_id));
    }
  }
  return true;
}

std::optional<api::FrameResponse> DispatchSession::dispatch(
    const api::FrameRequest& request, std::string* error) {
  if (!validate(request, error)) return std::nullopt;
  return dispatch_validated(request);
}

api::FrameResponse DispatchSession::dispatch_validated(const api::FrameRequest& request) {
  obs::StageTimer timer(obs::Stage::kServiceFrame);

  fill_frame(request, snapshotter_.fill(), scratch_.drivers);
  const sim::DispatchContext context = snapshotter_.assemble(request.timestamp);
  last_timestamp_ = request.timestamp;

  api::FrameResponse response;
  response.frame = request.frame;
  response.timestamp = request.timestamp;
  const double speed_km_per_second = config_.simulation().speed_kmh / 3600.0;
  const sim::DispatchResult result = dispatcher_->dispatch(context);
  response.assignments.reserve(result.size());
  for (const sim::DispatchAssignment& assignment : result) {
    api::Assignment converted;
    converted.driver_id = assignment.taxi;
    converted.order_ids = assignment.requests;
    O2O_EXPECTS(assignment.route.start.has_value());
    converted.start = *assignment.route.start;
    converted.route.reserve(assignment.route.stops.size());
    for (const routing::Stop& stop : assignment.route.stops) {
      converted.route.push_back(api::DriverStop{stop.request, stop.is_pickup, stop.point});
    }
    if (!assignment.route.stops.empty()) {
      converted.pick_up_eta =
          oracle_.distance(converted.start, assignment.route.stops.front().point) /
          speed_km_per_second;
    }
    response.assignments.push_back(std::move(converted));
  }
  return response;
}

}  // namespace o2o::service
