#include "tests/reference/groups.h"

#include <limits>

namespace o2o::packing::reference {

namespace {

std::vector<ShareGroup> scan(std::span<const trace::Request> requests,
                             const geo::DistanceOracle& oracle, const GroupOptions& options,
                             int taxi_seats, std::vector<routing::Route>* routes,
                             bool grow_triples_from_pairs) {
  std::vector<ShareGroup> groups;
  if (routes != nullptr) routes->clear();
  // Routes are built only when asked for: a route tells riders apart by
  // id, so it cannot be built for a group whose members share one.
  routing::Route route;
  routing::Route* const route_out = routes != nullptr ? &route : nullptr;
  const std::size_t n = requests.size();

  const auto pickups_close = [&](std::size_t i, std::size_t j) {
    if (options.pickup_radius_km == std::numeric_limits<double>::infinity()) return true;
    return geo::euclidean_distance(requests[i].pickup, requests[j].pickup) <=
           options.pickup_radius_km;
  };

  // Pairs. Remember feasibility for the triple-growing prune.
  std::vector<std::vector<bool>> pair_feasible;
  if (grow_triples_from_pairs) {
    pair_feasible.assign(n, std::vector<bool>(n, false));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!pickups_close(i, j)) continue;
      bool feasible = false;
      const ShareGroup group = evaluate_group(requests, {i, j}, oracle, options, taxi_seats,
                                              feasible, route_out);
      if (!feasible) continue;
      if (grow_triples_from_pairs) {
        pair_feasible[i][j] = pair_feasible[j][i] = true;
      }
      groups.push_back(group);
      if (routes != nullptr) routes->push_back(route);
    }
  }

  if (options.max_group_size < 3) return groups;

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (grow_triples_from_pairs && !pair_feasible[i][j]) continue;
      for (std::size_t k = j + 1; k < n; ++k) {
        if (grow_triples_from_pairs && (!pair_feasible[i][k] || !pair_feasible[j][k])) {
          continue;
        }
        if (!pickups_close(i, k) || !pickups_close(j, k)) continue;
        bool feasible = false;
        const ShareGroup group = evaluate_group(requests, {i, j, k}, oracle, options,
                                                taxi_seats, feasible, route_out);
        if (!feasible) continue;
        groups.push_back(group);
        if (routes != nullptr) routes->push_back(route);
      }
    }
  }
  return groups;
}

}  // namespace

std::vector<ShareGroup> enumerate_serial(std::span<const trace::Request> requests,
                                         const geo::DistanceOracle& oracle,
                                         const GroupOptions& options, int taxi_seats,
                                         std::vector<routing::Route>* routes) {
  return scan(requests, oracle, options, taxi_seats, routes, /*grow_triples_from_pairs=*/true);
}

std::vector<ShareGroup> enumerate_exhaustive(std::span<const trace::Request> requests,
                                             const geo::DistanceOracle& oracle,
                                             const GroupOptions& options, int taxi_seats,
                                             std::vector<routing::Route>* routes) {
  return scan(requests, oracle, options, taxi_seats, routes, /*grow_triples_from_pairs=*/false);
}

}  // namespace o2o::packing::reference
