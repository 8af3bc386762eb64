#include "tests/reference/profiles.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/stable_matching.h"
#include "routing/optimizer.h"

namespace o2o::core::reference {

PreferenceProfile dense_nonsharing_profile(std::span<const trace::Taxi> taxis,
                                           std::span<const trace::Request> requests,
                                           const geo::DistanceOracle& oracle,
                                           const PreferenceParams& params) {
  const std::size_t n_requests = requests.size();
  const std::size_t n_taxis = taxis.size();
  std::vector<geo::Point> taxi_locations(n_taxis);
  for (std::size_t t = 0; t < n_taxis; ++t) taxi_locations[t] = taxis[t].location;
  std::vector<std::vector<double>> passenger_scores(n_requests, std::vector<double>(n_taxis));
  std::vector<std::vector<double>> taxi_scores(n_requests, std::vector<double>(n_taxis));
  for (std::size_t r = 0; r < n_requests; ++r) {
    const trace::Request& request = requests[r];
    const double trip = oracle.distance(request.pickup, request.dropoff);
    const std::vector<double> pickups = oracle.distances_to(taxi_locations, request.pickup);
    for (std::size_t t = 0; t < n_taxis; ++t) {
      if (taxis[t].seats < request.seats) {
        // Not enough seats: past the dummy on both sides.
        passenger_scores[r][t] = kUnacceptable;
        taxi_scores[r][t] = kUnacceptable;
        continue;
      }
      const double pickup = pickups[t];
      const double driver = pickup - params.alpha * trip;
      passenger_scores[r][t] =
          pickup <= params.passenger_threshold_km ? pickup : kUnacceptable;
      taxi_scores[r][t] = driver <= params.taxi_threshold_score ? driver : kUnacceptable;
    }
  }
  return PreferenceProfile::from_scores(std::move(passenger_scores), std::move(taxi_scores),
                                        n_taxis, params.list_cap);
}

PreferenceProfile dense_sharing_profile(std::span<const trace::Taxi> taxis,
                                        std::span<const trace::Request> requests,
                                        const geo::DistanceOracle& oracle,
                                        const SharingParams& params,
                                        const SharingUnits& units) {
  const std::size_t n_units = units.units.size();
  const std::size_t n_taxis = taxis.size();
  const double passenger_threshold = params.preference.passenger_threshold_km;
  std::vector<geo::Point> taxi_locations(n_taxis);
  for (std::size_t t = 0; t < n_taxis; ++t) taxi_locations[t] = taxis[t].location;
  std::vector<std::vector<double>> passenger_scores(
      n_units, std::vector<double>(n_taxis, kUnacceptable));
  std::vector<std::vector<double>> taxi_scores(n_units,
                                               std::vector<double>(n_taxis, kUnacceptable));

  for (std::size_t u = 0; u < n_units; ++u) {
    const auto& members = units.units[u];
    const auto& direct = units.unit_direct_km[u];
    std::vector<trace::Request> riders;
    int seats = 0;
    for (const std::size_t index : members) {
      riders.push_back(requests[index]);
      seats += requests[index].seats;
    }
    double direct_sum = 0.0;
    for (const double d : direct) direct_sum += d;
    const routing::AnchoredRouteSolver solver(riders, oracle);

    // Mean direct pick-up distance over the members, for every taxi.
    std::vector<double> totals(n_taxis, 0.0);
    for (const std::size_t index : members) {
      const std::vector<double> pickups =
          oracle.distances_to(taxi_locations, requests[index].pickup);
      for (std::size_t t = 0; t < n_taxis; ++t) totals[t] += pickups[t];
    }
    std::vector<std::pair<double, int>> passing;  // (bound, taxi)
    for (std::size_t t = 0; t < n_taxis; ++t) {
      if (taxis[t].seats < seats) continue;
      const double bound = totals[t] / static_cast<double>(members.size());
      if (bound > passenger_threshold) continue;
      passing.emplace_back(bound, static_cast<int>(t));
    }
    std::sort(passing.begin(), passing.end());
    if (params.candidate_taxis_per_unit > 0 &&
        passing.size() > params.candidate_taxis_per_unit) {
      passing.resize(params.candidate_taxis_per_unit);
    }

    for (const auto& [bound, taxi] : passing) {
      const auto t = static_cast<std::size_t>(taxi);
      const routing::PricedOrder priced = solver.best_order(taxis[t].location);
      double passenger_sum = 0.0;
      for (std::size_t m = 0; m < members.size(); ++m) {
        const routing::RiderMetrics metrics = priced.rider(m);
        passenger_sum +=
            metrics.wait_km + params.preference.beta * (metrics.ride_km - direct[m]);
      }
      const double passenger_avg = passenger_sum / static_cast<double>(members.size());
      const double taxi_value =
          priced.length_km - (params.preference.alpha + 1.0) * direct_sum;
      passenger_scores[u][t] =
          passenger_avg <= passenger_threshold ? passenger_avg : kUnacceptable;
      taxi_scores[u][t] =
          taxi_value <= params.preference.taxi_threshold_score ? taxi_value : kUnacceptable;
    }
  }
  return PreferenceProfile::from_scores(std::move(passenger_scores), std::move(taxi_scores),
                                        n_taxis, params.preference.list_cap);
}

SharingOutcome dense_dispatch_sharing(std::span<const trace::Taxi> taxis,
                                      std::span<const trace::Request> requests,
                                      const geo::DistanceOracle& oracle,
                                      const SharingParams& params) {
  const SharingUnits units = pack_requests(requests, oracle, params);
  const PreferenceProfile profile =
      dense_sharing_profile(taxis, requests, oracle, params, units);
  const Matching matching = params.side == ProposalSide::kPassengers
                                ? gale_shapley_requests(profile)
                                : gale_shapley_taxis(profile);

  SharingOutcome outcome;
  outcome.packed_groups = units.packed_groups;
  outcome.feasible_groups = units.feasible_groups;
  outcome.exact_fallbacks = units.exact_fallbacks;
  for (std::size_t u = 0; u < units.units.size(); ++u) {
    const int t = matching.request_to_taxi[u];
    if (t == kDummy) {
      for (const std::size_t index : units.units[u]) {
        outcome.unserved_request_indices.push_back(index);
      }
      continue;
    }
    SharedAssignment assignment;
    assignment.taxi_index = static_cast<std::size_t>(t);
    assignment.request_indices = units.units[u];
    assignment.passenger_score = profile.passenger_score(u, assignment.taxi_index);
    assignment.taxi_score = profile.taxi_score(assignment.taxi_index, u);
    outcome.assignments.push_back(std::move(assignment));
  }
  std::sort(outcome.unserved_request_indices.begin(), outcome.unserved_request_indices.end());
  return outcome;
}

}  // namespace o2o::core::reference
