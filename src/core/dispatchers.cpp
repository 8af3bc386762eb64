#include "core/dispatchers.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "core/shard_engine.h"
#include "obs/obs.h"
#include "routing/insertion.h"
#include "util/contracts.h"

namespace o2o::core {

namespace {

/// Re-keys a dispatcher's remembered request-id -> taxi-id matching
/// (sorted pairs) into this frame's span indices: entry r is the
/// idle-taxi index the pending request r matched last call, or kDummy
/// when either side left the frame. Returns an empty vector (hints
/// disabled) when nothing maps. Pending ids are probed first; the taxi
/// index is built only once one of them is remembered, which in a
/// stream where matched orders leave the frame is never.
std::vector<int> map_warm_memory(
    std::span<const std::pair<trace::RequestId, trace::TaxiId>> memory,
    std::span<const trace::Taxi> idle_taxis, std::span<const trace::Request> pending) {
  std::vector<int> warm;
  std::unordered_map<trace::TaxiId, int> taxi_index;
  for (std::size_t r = 0; r < pending.size() && !memory.empty(); ++r) {
    const auto remembered = std::lower_bound(
        memory.begin(), memory.end(), pending[r].id,
        [](const auto& entry, trace::RequestId id) { return entry.first < id; });
    if (remembered == memory.end() || remembered->first != pending[r].id) continue;
    if (taxi_index.empty()) {
      taxi_index.reserve(idle_taxis.size());
      for (std::size_t t = 0; t < idle_taxis.size(); ++t) {
        taxi_index.emplace(idle_taxis[t].id, static_cast<int>(t));
      }
    }
    const auto index = taxi_index.find(remembered->second);
    if (index == taxi_index.end()) continue;  // taxi departed / went busy
    if (warm.empty()) warm.assign(pending.size(), kDummy);
    warm[r] = index->second;
  }
  return warm;
}

/// Working state of one busy taxi while the en-route extension inserts
/// pending requests into its remaining route.
struct EnrouteTaxi {
  trace::Taxi taxi;
  routing::Route route;
  int seats_onboard = 0;
  std::unordered_map<trace::RequestId, int> seats_of;
  std::vector<trace::RequestId> new_requests;
};

bool enroute_capacity_ok(const EnrouteTaxi& taxi, const routing::Route& route,
                         const trace::Request& incoming) {
  int seats = taxi.seats_onboard;
  for (const routing::Stop& stop : route.stops) {
    int demand = 0;
    if (stop.request == incoming.id) {
      demand = incoming.seats;
    } else {
      const auto it = taxi.seats_of.find(stop.request);
      O2O_EXPECTS(it != taxi.seats_of.end());
      demand = it->second;
    }
    seats += stop.is_pickup ? demand : -demand;
    if (seats > taxi.taxi.seats) return false;
  }
  return true;
}

/// Detour check for every rider whose pick-up is still ahead: along-route
/// ride distance within θ of their direct trip. Direct distances come
/// from `direct` for this frame's pending requests and from the route's
/// own stops for riders committed in earlier frames. The request→dropoff
/// map is built once per route, keeping the check linear in the stops.
bool enroute_detours_ok(const routing::Route& route, const geo::DistanceOracle& oracle,
                        const std::unordered_map<trace::RequestId, double>& direct,
                        double theta) {
  std::unordered_map<trace::RequestId, const geo::Point*> dropoff_of;
  dropoff_of.reserve(route.stops.size() / 2);
  for (const routing::Stop& stop : route.stops) {
    if (!stop.is_pickup) dropoff_of[stop.request] = &stop.point;  // last one wins
  }
  for (const routing::Stop& stop : route.stops) {
    if (!stop.is_pickup) continue;
    double direct_km = 0.0;
    const auto it = direct.find(stop.request);
    if (it != direct.end()) {
      direct_km = it->second;
    } else {
      const auto dropoff_it = dropoff_of.find(stop.request);
      if (dropoff_it == dropoff_of.end()) continue;
      direct_km = oracle.distance(stop.point, *dropoff_it->second);
    }
    const auto metrics = routing::rider_metrics(route, stop.request, oracle);
    if (metrics.ride_km - direct_km > theta) return false;
  }
  return true;
}

}  // namespace

StableDispatcher::StableDispatcher(StableDispatcherOptions options, FromConfig)
    : options_(std::move(options)) {}

std::string StableDispatcher::name() const {
  return options_.side == ProposalSide::kPassengers ? "NSTD-P" : "NSTD-T";
}

std::vector<sim::DispatchAssignment> StableDispatcher::dispatch(
    const sim::DispatchContext& context) {
  O2O_EXPECTS(context.oracle != nullptr);
  obs::StageTimer timer(obs::Stage::kDispatch);
  if (context.idle_taxis.empty() || context.pending.empty()) return {};

  const PreferenceProfile profile =
      build_nonsharing_profile(context.idle_taxis, context.pending, *context.oracle,
                               options_.preference, context.idle_grid);

  const std::vector<int> warm_seed =
      options_.warm_start_da
          ? map_warm_memory(last_match_, context.idle_taxis, context.pending)
          : std::vector<int>{};
  const Matching matching =
      sharded_gale_shapley(profile, options_.side, options_.sharding, warm_seed);

  if (options_.warm_start_da) last_match_.clear();
  std::vector<sim::DispatchAssignment> assignments;
  assignments.reserve(matching.matched_count());
  for (std::size_t r = 0; r < context.pending.size(); ++r) {
    const int t = matching.request_to_taxi[r];
    if (t == kDummy) continue;
    const trace::Taxi& taxi = context.idle_taxis[static_cast<std::size_t>(t)];
    if (options_.warm_start_da) last_match_.emplace_back(context.pending[r].id, taxi.id);
    sim::DispatchAssignment assignment;
    assignment.taxi = taxi.id;
    assignment.requests = {context.pending[r].id};
    assignment.route = routing::single_rider_route(context.pending[r], taxi.location);
    assignments.push_back(std::move(assignment));
  }
  std::sort(last_match_.begin(), last_match_.end());  // for map_warm_memory's search
  return assignments;
}

SharingStableDispatcher::SharingStableDispatcher(SharingStableDispatcherOptions options,
                                                 FromConfig)
    : options_(std::move(options)) {}

std::string SharingStableDispatcher::name() const {
  std::string base = options_.params.side == ProposalSide::kPassengers ? "STD-P" : "STD-T";
  if (options_.enroute_extension) base += "+";
  return base;
}

std::vector<sim::DispatchAssignment> SharingStableDispatcher::dispatch(
    const sim::DispatchContext& context) {
  O2O_EXPECTS(context.oracle != nullptr);
  obs::StageTimer timer(obs::Stage::kDispatch);
  if (context.pending.empty()) return {};
  if (context.idle_taxis.empty() && !options_.enroute_extension) return {};

  SharingOutcome outcome;
  if (context.idle_taxis.empty()) {
    // No idle taxis: everything is a candidate for en-route insertion.
    for (std::size_t i = 0; i < context.pending.size(); ++i) {
      outcome.unserved_request_indices.push_back(i);
    }
  } else {
    const std::vector<int> warm_taxi =
        options_.warm_start_da
            ? map_warm_memory(last_match_, context.idle_taxis, context.pending)
            : std::vector<int>{};
    outcome = dispatch_sharing(context.idle_taxis, context.pending, *context.oracle,
                               options_.params, context.idle_grid, context.group_cache,
                               warm_taxi);
  }

  if (options_.warm_start_da) last_match_.clear();
  std::vector<sim::DispatchAssignment> assignments;
  assignments.reserve(outcome.assignments.size());
  for (const SharedAssignment& shared : outcome.assignments) {
    sim::DispatchAssignment assignment;
    assignment.taxi = context.idle_taxis[shared.taxi_index].id;
    assignment.requests.reserve(shared.request_indices.size());
    for (std::size_t index : shared.request_indices) {
      assignment.requests.push_back(context.pending[index].id);
      if (options_.warm_start_da) {
        last_match_.emplace_back(context.pending[index].id, assignment.taxi);
      }
    }
    assignment.route = shared.route;
    assignments.push_back(std::move(assignment));
  }
  std::sort(last_match_.begin(), last_match_.end());  // for map_warm_memory's search

  if (options_.enroute_extension && !outcome.unserved_request_indices.empty() &&
      !context.busy_taxis.empty()) {
    obs::StageTimer enroute_timer(obs::Stage::kEnroute);
    const geo::DistanceOracle& oracle = *context.oracle;
    const PreferenceParams& prefs = options_.params.preference;
    const double theta = options_.params.grouping.detour_threshold_km;

    std::vector<EnrouteTaxi> fleet;
    fleet.reserve(context.busy_taxis.size());
    for (const sim::BusyTaxiView& view : context.busy_taxis) {
      EnrouteTaxi taxi;
      taxi.taxi = view.taxi;
      taxi.route.start = view.taxi.location;
      taxi.route.stops = view.remaining_stops;
      taxi.seats_onboard = view.seats_in_use;
      for (const auto& [id, seats] : view.route_request_seats) taxi.seats_of.emplace(id, seats);
      fleet.push_back(std::move(taxi));
    }

    std::unordered_map<trace::RequestId, double> direct;
    for (const trace::Request& request : context.pending) {
      direct.emplace(request.id, oracle.distance(request.pickup, request.dropoff));
    }

    for (std::size_t index : outcome.unserved_request_indices) {
      const trace::Request& request = context.pending[index];
      double best_added = std::numeric_limits<double>::infinity();
      std::size_t best_taxi = 0;
      routing::Route best_route;
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        EnrouteTaxi& taxi = fleet[i];
        const auto insertion = routing::cheapest_insertion(taxi.route, request, oracle);
        if (!insertion.has_value()) continue;
        if (!enroute_capacity_ok(taxi, insertion->route, request)) continue;
        if (!enroute_detours_ok(insertion->route, oracle, direct, theta)) continue;
        // Both sides must agree: the rider's wait within their threshold,
        // the driver's marginal score within theirs.
        const auto metrics = routing::rider_metrics(insertion->route, request.id, oracle);
        if (metrics.wait_km > prefs.passenger_threshold_km) continue;
        const double marginal =
            insertion->added_km - (prefs.alpha + 1.0) * direct.at(request.id);
        if (marginal > prefs.taxi_threshold_score) continue;
        if (insertion->added_km < best_added) {
          best_added = insertion->added_km;
          best_taxi = i;
          best_route = insertion->route;
        }
      }
      if (best_added == std::numeric_limits<double>::infinity()) continue;
      EnrouteTaxi& taxi = fleet[best_taxi];
      taxi.route = std::move(best_route);
      taxi.seats_of.emplace(request.id, request.seats);
      taxi.new_requests.push_back(request.id);
    }

    for (const EnrouteTaxi& taxi : fleet) {
      if (taxi.new_requests.empty()) continue;
      obs::add(obs::Counter::kEnrouteInsertions, taxi.new_requests.size());
      sim::DispatchAssignment assignment;
      assignment.taxi = taxi.taxi.id;
      assignment.requests = taxi.new_requests;
      assignment.route = taxi.route;
      assignments.push_back(std::move(assignment));
    }
  }
  return assignments;
}

}  // namespace o2o::core
