#include "service/session.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "obs/obs.h"
#include "util/contracts.h"

namespace o2o::service {

DispatchSession::DispatchSession(std::string_view kind, DispatchConfig config,
                                 const geo::DistanceOracle& oracle)
    : config_(std::move(config)),
      oracle_(oracle),
      kind_(kind),
      dispatcher_(make_dispatcher(kind_, config_)),
      group_cache_(std::make_unique<packing::GroupCache>()) {
  O2O_EXPECTS(dispatcher_ != nullptr);
  dispatcher_name_ = dispatcher_->name();
}

void DispatchSession::reset() {
  dispatcher_ = make_dispatcher(kind_, config_);
  group_cache_ = std::make_unique<packing::GroupCache>();
}

bool DispatchSession::validate(const api::FrameRequest& request, std::string* error) {
  const auto reject = [error](std::string reason) {
    if (error != nullptr) *error = std::move(reason);
    return false;
  };
  // Sort id copies rather than scanning adjacency of the barrier order:
  // orders sort by (timestamp, id), so equal ids with distinct
  // timestamps would not be adjacent there.
  std::vector<std::int32_t> ids;
  ids.reserve(std::max(request.orders.size(), request.drivers.size()));
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
  for (const api::Order& order : request.orders) {
    if (order.seats < 1) {
      return reject("invalid seats " + std::to_string(order.seats) + " on order_id " +
                    std::to_string(order.order_id) + ": must be >= 1");
    }
  }
  for (const api::Driver& driver : request.drivers) {
    if (driver.seats_in_use < 0 || driver.seats_in_use > driver.seats) {
      return reject("invalid seats_in_use " + std::to_string(driver.seats_in_use) +
                    " on driver_id " + std::to_string(driver.driver_id) +
                    ": must be within [0, seats = " + std::to_string(driver.seats) + "]");
    }
  }
  return true;
}

std::optional<api::FrameResponse> DispatchSession::dispatch(
    const api::FrameRequest& request, std::string* error) {
  if (!validate(request, error)) return std::nullopt;

  obs::StageTimer timer(obs::Stage::kServiceFrame);

  // Canonical barrier order. Trace request ids are assigned in time
  // order and fleet ids ascending, so this reproduces exactly the span
  // order the batch simulator's snapshotter builds (rebuilt-grid mode) —
  // the keystone of the streamed-equals-batch bit-identity argument.
  pending_.clear();
  pending_.reserve(request.orders.size());
  for (const api::Order& order : request.orders) {
    trace::Request converted;
    converted.id = order.order_id;
    converted.time_seconds = order.timestamp;
    converted.pickup = order.start;
    converted.dropoff = order.finish;
    converted.seats = order.seats;
    pending_.push_back(converted);
  }
  std::sort(pending_.begin(), pending_.end(),
            [](const trace::Request& a, const trace::Request& b) {
              return a.time_seconds != b.time_seconds ? a.time_seconds < b.time_seconds
                                                      : a.id < b.id;
            });
  std::vector<const api::Driver*> drivers;
  drivers.reserve(request.drivers.size());
  for (const api::Driver& driver : request.drivers) drivers.push_back(&driver);
  std::sort(drivers.begin(), drivers.end(),
            [](const api::Driver* a, const api::Driver* b) {
              return a->driver_id < b->driver_id;
            });
  idle_.clear();
  busy_.clear();
  for (const api::Driver* driver : drivers) {
    if (driver->idle()) {
      trace::Taxi taxi;
      taxi.id = driver->driver_id;
      taxi.location = driver->location;
      taxi.seats = driver->seats;
      idle_.push_back(taxi);
    } else {
      sim::BusyTaxiView view;
      view.taxi.id = driver->driver_id;
      view.taxi.location = driver->location;
      view.taxi.seats = driver->seats;
      view.seats_in_use = driver->seats_in_use;
      view.onboard = driver->onboard;
      view.remaining_stops.reserve(driver->route.size());
      for (const api::DriverStop& stop : driver->route) {
        view.remaining_stops.push_back(
            routing::Stop{stop.order_id, stop.is_pickup, stop.point});
      }
      view.route_request_seats = driver->route_seats;
      busy_.push_back(std::move(view));
    }
  }

  // Fresh spatial index per frame (the session is stateless at the
  // geometry level; cross-frame acceleration lives in the GroupCache and
  // the dispatcher's warm-start state, both result-invariant).
  std::optional<index::SpatialGrid> idle_grid;
  if (!idle_.empty()) {
    idle_grid.emplace(std::span<const trace::Taxi>(idle_),
                      config_.simulation().idle_grid_cell_km);
  }

  frame_points_.clear();
  frame_points_.reserve(idle_.size());
  for (const trace::Taxi& taxi : idle_) frame_points_.push_back(taxi.location);
  oracle_.prepare_frame(frame_points_);

  sim::DispatchContext context;
  context.now_seconds = request.timestamp;
  context.idle_taxis = idle_;
  context.busy_taxis = busy_;
  context.pending = pending_;
  context.oracle = &oracle_;
  context.idle_grid = idle_grid ? &*idle_grid : nullptr;
  context.trace = obs::active_sink();
  context.group_cache = group_cache_.get();

  api::FrameResponse response;
  response.frame = request.frame;
  response.timestamp = request.timestamp;
  const double speed_km_per_second = config_.simulation().speed_kmh / 3600.0;
  for (const sim::DispatchAssignment& assignment : dispatcher_->dispatch(context)) {
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
