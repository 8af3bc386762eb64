#include "tests/reference/routes.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "util/contracts.h"

namespace o2o::routing::reference {

namespace {

std::vector<Stop> stops_of(std::span<const trace::Request> riders) {
  std::vector<Stop> stops;
  for (const trace::Request& r : riders) {
    stops.push_back(Stop{r.id, true, r.pickup});    // index 2m
    stops.push_back(Stop{r.id, false, r.dropoff});  // index 2m + 1
  }
  return stops;
}

/// Pointwise stop-to-stop distances, diagonal 0.
std::vector<double> table_of(const std::vector<Stop>& stops, const geo::DistanceOracle& oracle) {
  const std::size_t n = stops.size();
  std::vector<double> table(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) table[i * n + j] = oracle.distance(stops[i].point, stops[j].point);
    }
  }
  return table;
}

}  // namespace

Route optimal_route_dp(std::span<const trace::Request> riders,
                       const geo::DistanceOracle& oracle, std::optional<geo::Point> start) {
  O2O_EXPECTS(riders.size() >= 1 && riders.size() <= 8);
  const std::vector<Stop> stops = stops_of(riders);
  const std::vector<double> table = table_of(stops, oracle);
  const std::size_t n = stops.size();
  const std::size_t masks = std::size_t{1} << n;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto leading = [&](std::size_t s) {
    return start.has_value() ? oracle.distance(*start, stops[s].point) : 0.0;
  };

  // dp[mask][last]: min length of a precedence-feasible partial route
  // visiting exactly `mask`, ending at stop `last`.
  std::vector<double> dp(masks * n, kInf);
  std::vector<int> parent(masks * n, -1);
  for (std::size_t s = 0; s < n; s += 2) {  // cannot start with a drop-off
    dp[(std::size_t{1} << s) * n + s] = leading(s);
  }
  for (std::size_t mask = 1; mask < masks; ++mask) {
    for (std::size_t last = 0; last < n; ++last) {
      const double length = dp[mask * n + last];
      if (length == kInf) continue;
      for (std::size_t next = 0; next < n; ++next) {
        if (mask & (std::size_t{1} << next)) continue;
        if (next % 2 == 1 && !(mask & (std::size_t{1} << (next - 1)))) continue;
        const std::size_t new_mask = mask | (std::size_t{1} << next);
        const double candidate = length + table[last * n + next];
        if (candidate < dp[new_mask * n + next]) {
          dp[new_mask * n + next] = candidate;
          parent[new_mask * n + next] = static_cast<int>(last);
        }
      }
    }
  }

  const std::size_t full = masks - 1;
  std::size_t at = 0;
  for (std::size_t last = 1; last < n; ++last) {
    if (dp[full * n + last] < dp[full * n + at]) at = last;
  }
  O2O_ENSURES(dp[full * n + at] < kInf);
  std::vector<std::size_t> order(n);
  std::size_t mask = full;
  for (std::size_t i = n; i-- > 0;) {
    order[i] = at;
    const int prev = parent[mask * n + at];
    mask ^= std::size_t{1} << at;
    if (prev < 0) break;
    at = static_cast<std::size_t>(prev);
  }
  Route route;
  route.start = start;
  for (const std::size_t s : order) route.stops.push_back(stops[s]);
  O2O_ENSURES(respects_precedence(route));
  return route;
}

PricedOrder brute_force_order(std::span<const trace::Request> riders,
                              const geo::DistanceOracle& oracle,
                              std::optional<geo::Point> start) {
  O2O_EXPECTS(riders.size() >= 1 && riders.size() <= kMaxRouteRiders);
  const std::vector<Stop> stops = stops_of(riders);
  const std::vector<double> table = table_of(stops, oracle);
  const std::size_t n = stops.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  PricedOrder best;
  best.stop_count = n;
  double best_length = std::numeric_limits<double>::infinity();
  do {
    std::vector<bool> placed(n, false);
    bool feasible = true;
    for (const std::size_t s : order) {
      if (s % 2 == 1 && !placed[s - 1]) feasible = false;
      placed[s] = true;
    }
    if (!feasible) continue;
    PricedOrder priced;
    priced.stop_count = n;
    double travelled = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      travelled += k == 0 ? (start.has_value() ? oracle.distance(*start, stops[order[0]].point)
                                               : 0.0)
                          : table[order[k - 1] * n + order[k]];
      priced.order[k] = static_cast<std::uint8_t>(order[k]);
      priced.arrival_km[order[k]] = travelled;
    }
    priced.length_km = travelled;
    if (travelled < best_length) {
      best_length = travelled;
      best = priced;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

}  // namespace o2o::routing::reference
