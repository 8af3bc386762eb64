#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>

#include "util/contracts.h"

namespace o2o::sim {

Simulator::Simulator(const trace::Trace& trace, std::vector<trace::Taxi> fleet,
                     const geo::DistanceOracle& oracle, SimulatorConfig config)
    : trace_(trace),
      initial_fleet_(std::move(fleet)),
      oracle_(oracle),
      config_(config),
      snapshotter_(oracle_, config_.idle_grid_cell_km) {
  O2O_EXPECTS(config_.frame_seconds > 0.0);
  O2O_EXPECTS(config_.speed_kmh > 0.0);
  O2O_EXPECTS(config_.cancel_timeout_seconds > 0.0);
}

void Simulator::reset() {
  taxis_.clear();
  taxi_index_.clear();
  for (const trace::Taxi& spec : initial_fleet_) {
    TaxiState state;
    state.spec = spec;
    state.position = spec.location;
    taxi_index_.emplace(spec.id, taxis_.size());
    taxis_.push_back(std::move(state));
  }
  pending_.clear();
  active_requests_.clear();
  snapshotter_.reset();
  report_ = SimulationReport{};
  record_index_.clear();
}

void Simulator::fill_frame(FrameBuffers& frame) const {
  for (const TaxiState& taxi : taxis_) {
    if (taxi.idle()) {
      trace::Taxi snapshot = taxi.spec;
      snapshot.location = taxi.position;
      frame.idle.push_back(snapshot);
    } else {
      BusyTaxiView& view = frame.add_busy();
      view.taxi = taxi.spec;
      view.taxi.location = taxi.position;
      view.remaining_stops.assign(taxi.stops.begin(), taxi.stops.end());
      view.onboard = taxi.onboard;
      view.seats_in_use = taxi.seats_in_use;
      std::unordered_set<trace::RequestId> seen;
      for (const routing::Stop& stop : taxi.stops) {
        if (seen.insert(stop.request).second) {
          view.route_request_seats.emplace_back(stop.request,
                                                active_requests_.at(stop.request).seats);
        }
      }
    }
  }
  frame.pending.assign(pending_.begin(), pending_.end());
}

RequestRecord& Simulator::record_of(trace::RequestId id) {
  const auto it = record_index_.find(id);
  O2O_EXPECTS(it != record_index_.end());
  return report_.requests[it->second];
}

void Simulator::ingest_arrivals(std::size_t& next_request, double now) {
  const auto& requests = trace_.requests();
  while (next_request < requests.size() && requests[next_request].time_seconds <= now) {
    const trace::Request& request = requests[next_request];
    pending_.push_back(request);
    active_requests_.emplace(request.id, request);
    RequestRecord record;
    record.id = request.id;
    record.request_time = request.time_seconds;
    record_index_.emplace(request.id, report_.requests.size());
    report_.requests.push_back(record);
    ++next_request;
  }
}

void Simulator::cancel_stale(double now) {
  std::deque<trace::Request> kept;
  for (const trace::Request& request : pending_) {
    if (now - request.time_seconds > config_.cancel_timeout_seconds) {
      record_of(request.id).cancelled = true;
      active_requests_.erase(request.id);
      ++report_.cancelled;
    } else {
      kept.push_back(request);
    }
  }
  pending_.swap(kept);
}

void Simulator::validate_assignment(const DispatchAssignment& assignment,
                                    const TaxiState& taxi) const {
  O2O_EXPECTS(!assignment.requests.empty());
  O2O_EXPECTS(assignment.route.start.has_value());
  O2O_EXPECTS(geo::euclidean_distance(*assignment.route.start, taxi.position) < 1e-6);
  O2O_EXPECTS(respects_precedence(assignment.route, taxi.onboard));

  // Newly dispatched requests must be pending.
  std::unordered_set<trace::RequestId> new_ids;
  for (trace::RequestId id : assignment.requests) {
    O2O_EXPECTS(active_requests_.count(id) == 1);
    bool is_pending = false;
    for (const trace::Request& p : pending_) {
      if (p.id == id) {
        is_pending = true;
        break;
      }
    }
    O2O_EXPECTS(is_pending);
    O2O_EXPECTS(new_ids.insert(id).second);
  }

  // The route must serve exactly: onboard requests (drop-off only),
  // committed-but-not-picked requests (pick-up and drop-off), and the
  // new requests (pick-up and drop-off).
  std::unordered_map<trace::RequestId, int> pickups, dropoffs;
  for (const routing::Stop& stop : assignment.route.stops) {
    (stop.is_pickup ? pickups : dropoffs)[stop.request] += 1;
  }
  const auto count_of = [](const std::unordered_map<trace::RequestId, int>& counts,
                           trace::RequestId id) {
    const auto it = counts.find(id);
    return it == counts.end() ? 0 : it->second;
  };
  std::unordered_set<trace::RequestId> expected_pickup(new_ids.begin(), new_ids.end());
  for (trace::RequestId id : taxi.committed) expected_pickup.insert(id);
  for (trace::RequestId id : expected_pickup) {
    O2O_EXPECTS(count_of(pickups, id) == 1 && count_of(dropoffs, id) == 1);
  }
  for (trace::RequestId id : taxi.onboard) {
    O2O_EXPECTS(count_of(pickups, id) == 0 && count_of(dropoffs, id) == 1);
  }
  O2O_EXPECTS(pickups.size() == expected_pickup.size());
  O2O_EXPECTS(dropoffs.size() == expected_pickup.size() + taxi.onboard.size());

  // Capacity along the route.
  int seats = taxi.seats_in_use;
  int worst = seats;
  for (const routing::Stop& stop : assignment.route.stops) {
    const auto it = active_requests_.find(stop.request);
    O2O_EXPECTS(it != active_requests_.end());
    seats += stop.is_pickup ? it->second.seats : -it->second.seats;
    worst = std::max(worst, seats);
  }
  O2O_EXPECTS(worst <= taxi.spec.seats);
  O2O_EXPECTS(seats == 0);
}

void Simulator::record_dispatch(const DispatchAssignment& assignment,
                                const TaxiState& taxi, double now) {
  const routing::Route& route = assignment.route;
  std::unordered_set<trace::RequestId> route_ids;
  for (const routing::Stop& stop : route.stops) route_ids.insert(stop.request);
  // Fares of the *newly dispatched* requests only: for en-route
  // insertion, previously dispatched riders' fares were counted when
  // they were dispatched, so the taxi metric below is marginal.
  double direct_sum = 0.0;
  for (trace::RequestId id : assignment.requests) {
    const trace::Request& request = active_requests_.at(id);
    direct_sum += oracle_.distance(request.pickup, request.dropoff);
  }

  for (trace::RequestId id : assignment.requests) {
    const trace::Request& request = active_requests_.at(id);
    RequestRecord& record = record_of(id);
    record.dispatch_time = now;
    record.dispatch_delay_minutes = (now - request.time_seconds) / 60.0;
    record.shared = route_ids.size() > 1;

    const auto metrics = routing::rider_metrics(route, id, oracle_);
    const double direct = oracle_.distance(request.pickup, request.dropoff);
    record.passenger_dissatisfaction_km =
        metrics.wait_km + config_.beta * (metrics.ride_km - direct);

    report_.delay_cdf.add(record.dispatch_delay_minutes);
    report_.passenger_cdf.add(record.passenger_dissatisfaction_km);
    report_.delay_stats.add(record.dispatch_delay_minutes);
    report_.passenger_stats.add(record.passenger_dissatisfaction_km);
    report_.hourly_delay.add(record.request_time, record.dispatch_delay_minutes);
    report_.hourly_passenger.add(record.request_time,
                                 record.passenger_dissatisfaction_km);
    ++report_.served;
  }

  // Taxi dissatisfaction: one sample per dispatch,
  // D_ck(t) - (α + 1) Σ D(r.s, r.d). For a fresh (idle-taxi) dispatch
  // this is exactly the paper's formula (and reduces to
  // D(t, r.s) - α D(r.s, r.d) for a solo ride); for en-route insertion
  // the marginal route extension replaces D_ck(t) so that distance and
  // fares are never counted twice across dispatch records.
  routing::Route previous_route;
  previous_route.start = taxi.position;
  previous_route.stops.assign(taxi.stops.begin(), taxi.stops.end());
  const double added_length =
      routing::route_length(route, oracle_) - routing::route_length(previous_route, oracle_);
  const double taxi_score = added_length - (config_.alpha + 1.0) * direct_sum;
  report_.taxi_cdf.add(taxi_score);
  report_.taxi_stats.add(taxi_score);
  report_.hourly_taxi.add(now, taxi_score);
  ++report_.dispatched_rides;
  if (route_ids.size() > 1) ++report_.shared_rides;
}

void Simulator::apply_assignment(const DispatchAssignment& assignment, double now) {
  const auto index_it = taxi_index_.find(assignment.taxi);
  O2O_EXPECTS(index_it != taxi_index_.end());
  TaxiState& taxi = taxis_[index_it->second];
  validate_assignment(assignment, taxi);

  record_dispatch(assignment, taxi, now);

  taxi.stops.assign(assignment.route.stops.begin(), assignment.route.stops.end());
  taxi.leg_waypoints.clear();  // the current leg may have changed
  taxi.next_waypoint = 0;
  for (trace::RequestId id : assignment.requests) {
    taxi.committed.push_back(id);
    const auto pending_it =
        std::find_if(pending_.begin(), pending_.end(),
                     [id](const trace::Request& r) { return r.id == id; });
    O2O_EXPECTS(pending_it != pending_.end());
    pending_.erase(pending_it);
  }
}

void Simulator::move_taxis(double now, double dt) {
  const double speed_km_per_second = config_.speed_kmh / 3600.0;
  for (TaxiState& taxi : taxis_) {
    double budget = speed_km_per_second * dt;
    double spent = 0.0;
    while (budget > 0.0 && !taxi.stops.empty()) {
      const routing::Stop& stop = taxi.stops.front();

      // Lazily (re)build the current leg's polyline: the direct segment
      // in Euclidean mode, the network drive path in network mode.
      if (taxi.next_waypoint >= taxi.leg_waypoints.size()) {
        taxi.leg_waypoints = config_.road_network != nullptr
                                 ? config_.road_network->drive_path(taxi.position,
                                                                    stop.point)
                                 : std::vector<geo::Point>{stop.point};
        taxi.next_waypoint = 0;
      }

      // Advance along the polyline until the budget runs out or the
      // stop is reached.
      bool reached_stop = false;
      while (budget > 0.0 && taxi.next_waypoint < taxi.leg_waypoints.size()) {
        const geo::Point& waypoint = taxi.leg_waypoints[taxi.next_waypoint];
        const double gap = geo::euclidean_distance(taxi.position, waypoint);
        if (gap > budget) {
          taxi.position = geo::advance_toward(taxi.position, waypoint, budget);
          taxi.distance_driven_km += budget;
          report_.total_taxi_distance_km += budget;
          spent += budget;
          budget = 0.0;
          break;
        }
        taxi.position = waypoint;
        taxi.distance_driven_km += gap;
        report_.total_taxi_distance_km += gap;
        budget -= gap;
        spent += gap;
        ++taxi.next_waypoint;
        reached_stop = (taxi.next_waypoint == taxi.leg_waypoints.size());
      }
      if (!reached_stop) break;  // budget exhausted mid-leg
      taxi.leg_waypoints.clear();
      taxi.next_waypoint = 0;
      const double event_time = now + spent / speed_km_per_second;

      if (stop.is_pickup) {
        const auto committed_it =
            std::find(taxi.committed.begin(), taxi.committed.end(), stop.request);
        O2O_EXPECTS(committed_it != taxi.committed.end());
        taxi.committed.erase(committed_it);
        taxi.onboard.push_back(stop.request);
        taxi.seats_in_use += active_requests_.at(stop.request).seats;
        record_of(stop.request).pickup_time = event_time;
      } else {
        const auto onboard_it =
            std::find(taxi.onboard.begin(), taxi.onboard.end(), stop.request);
        O2O_EXPECTS(onboard_it != taxi.onboard.end());
        taxi.onboard.erase(onboard_it);
        taxi.seats_in_use -= active_requests_.at(stop.request).seats;
        record_of(stop.request).dropoff_time = event_time;
        active_requests_.erase(stop.request);
      }
      taxi.stops.pop_front();
    }
  }
}

SimulationReport Simulator::run(Dispatcher& dispatcher) {
  return run_streamed(
      [&dispatcher](const DispatchContext& context, std::uint64_t) {
        return dispatcher.dispatch(context);
      },
      dispatcher.name());
}

SimulationReport Simulator::run_streamed(const FrameDispatchFn& dispatch_fn,
                                         std::string_view dispatcher_name) {
  reset();
  report_.dispatcher_name = std::string(dispatcher_name);

  // Install the configured sink for the duration of the run; frames are
  // closed after move_taxis so oracle work in apply/move is attributed
  // to the frame that caused it.
  obs::TraceSink* sink = config_.trace_sink;
  std::optional<obs::Activation> activation;
  if (sink != nullptr) activation.emplace(*sink);

  std::size_t next_request = 0;
  std::uint64_t frame_index = 0;
  const double end_time = trace_.duration_seconds() + config_.drain_seconds;
  double now = 0.0;
  for (; now <= end_time; now += config_.frame_seconds, ++frame_index) {
    if (sink != nullptr) sink->begin_frame(frame_index, now);
    ingest_arrivals(next_request, now);
    cancel_stale(now);
    if (!pending_.empty()) {
      obs::gauge_max(obs::Gauge::kPendingPeak, pending_.size());
      fill_frame(snapshotter_.fill());
      const DispatchContext context = snapshotter_.assemble(now);
      for (const DispatchAssignment& assignment : dispatch_fn(context, frame_index)) {
        if (sink != nullptr) sink->add_assignments(assignment.requests.size());
        apply_assignment(assignment, now);
      }
    }
    move_taxis(now, config_.frame_seconds);
    if (sink != nullptr) {
      std::uint64_t idle = 0;
      for (const TaxiState& taxi : taxis_) idle += taxi.idle() ? 1 : 0;
      sink->set_frame_context(idle, taxis_.size() - idle, pending_.size());
      sink->end_frame();
    }

    if (next_request == trace_.requests().size() && pending_.empty()) {
      const bool all_idle = std::all_of(taxis_.begin(), taxis_.end(),
                                        [](const TaxiState& t) { return t.idle(); });
      if (all_idle) {
        now += config_.frame_seconds;
        break;
      }
    }
  }
  report_.simulated_seconds = now;
  report_.pending_at_end = pending_.size();
  return std::move(report_);
}

}  // namespace o2o::sim
