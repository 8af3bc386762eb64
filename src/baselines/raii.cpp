#include "baselines/raii.h"

#include <limits>

#include "baselines/working_fleet.h"
#include "index/spatial_grid.h"
#include "routing/insertion.h"
#include "util/contracts.h"

namespace o2o::baselines {

RaiiDispatcher::RaiiDispatcher(RaiiOptions options) : options_(options) {
  O2O_EXPECTS(options.search_radius_km > 0.0);
  O2O_EXPECTS(options.cell_km > 0.0);
}

std::vector<sim::DispatchAssignment> RaiiDispatcher::dispatch(
    const sim::DispatchContext& context) {
  O2O_EXPECTS(context.oracle != nullptr);
  if (context.pending.empty()) return {};
  std::vector<WorkingTaxi> fleet =
      build_working_fleet(context, options_.use_busy_taxis);
  if (fleet.empty()) return {};

  // Spatial index over working-taxi positions (the "spatio-temporal
  // index" of [7]; with one-minute frames the temporal dimension
  // degenerates to the current frame).
  geo::Rect bounds{{1e18, 1e18}, {-1e18, -1e18}};
  std::vector<geo::Point> locations;
  locations.reserve(fleet.size());
  for (const WorkingTaxi& taxi : fleet) {
    bounds.lo.x = std::min(bounds.lo.x, taxi.taxi.location.x - 1.0);
    bounds.lo.y = std::min(bounds.lo.y, taxi.taxi.location.y - 1.0);
    bounds.hi.x = std::max(bounds.hi.x, taxi.taxi.location.x + 1.0);
    bounds.hi.y = std::max(bounds.hi.y, taxi.taxi.location.y + 1.0);
    locations.push_back(taxi.taxi.location);
  }
  const index::SpatialGrid grid(bounds, options_.cell_km, locations);

  // Direct trip distances for the detour constraint: pending requests
  // plus everything already scheduled on a candidate route.
  std::unordered_map<trace::RequestId, double> direct;
  for (const trace::Request& request : context.pending) {
    direct.emplace(request.id,
                   context.oracle->distance(request.pickup, request.dropoff));
  }

  // Along-route ride distance of every rider with a pick-up still ahead
  // must stay within the detour bound of their direct distance.
  const auto detours_ok = [&](const routing::Route& route) {
    if (options_.detour_threshold_km == std::numeric_limits<double>::infinity()) {
      return true;
    }
    for (const routing::Stop& stop : route.stops) {
      if (!stop.is_pickup) continue;
      double direct_km = 0.0;
      const auto it = direct.find(stop.request);
      if (it != direct.end()) {
        direct_km = it->second;
      } else {
        // Committed pre-frame: recover the direct trip from its stops.
        const geo::Point* dropoff = nullptr;
        for (const routing::Stop& other : route.stops) {
          if (other.request == stop.request && !other.is_pickup) dropoff = &other.point;
        }
        if (dropoff == nullptr) continue;
        direct_km = context.oracle->distance(stop.point, *dropoff);
      }
      const auto metrics = routing::rider_metrics(route, stop.request, *context.oracle);
      if (metrics.ride_km - direct_km > options_.detour_threshold_km) return false;
    }
    return true;
  };

  // Arrival-order greedy commit, minimum added travel distance.
  for (const trace::Request& request : context.pending) {
    const std::vector<std::int32_t> candidates =
        grid.within_radius(request.pickup, options_.search_radius_km);
    double best_added = std::numeric_limits<double>::infinity();
    std::size_t best_taxi = 0;
    routing::Route best_route;
    for (std::int32_t candidate : candidates) {
      WorkingTaxi& taxi = fleet[static_cast<std::size_t>(candidate)];
      const auto insertion = routing::cheapest_insertion(taxi.route, request,
                                                         *context.oracle);
      if (!insertion.has_value()) continue;
      if (!capacity_ok(taxi, insertion->route, &request)) continue;
      if (!detours_ok(insertion->route)) continue;
      if (options_.max_wait_km != std::numeric_limits<double>::infinity()) {
        const auto metrics =
            routing::rider_metrics(insertion->route, request.id, *context.oracle);
        if (metrics.wait_km > options_.max_wait_km) continue;
      }
      if (insertion->added_km < best_added) {
        best_added = insertion->added_km;
        best_taxi = static_cast<std::size_t>(candidate);
        best_route = insertion->route;
      }
    }
    if (best_added == std::numeric_limits<double>::infinity()) continue;  // waits
    WorkingTaxi& taxi = fleet[best_taxi];
    taxi.route = std::move(best_route);
    taxi.seats_of.emplace(request.id, request.seats);
    taxi.new_requests.push_back(request.id);
  }
  return emit_assignments(fleet);
}

}  // namespace o2o::baselines
