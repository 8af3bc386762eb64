#include "routing/optimizer.h"

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/contracts.h"

namespace o2o::routing {

namespace {

void stops_into(std::span<const trace::Request> riders, std::vector<Stop>& stops) {
  stops.clear();
  stops.reserve(riders.size() * 2);
  for (const trace::Request& r : riders) {
    stops.push_back(Stop{r.id, true, r.pickup});    // index 2i
    stops.push_back(Stop{r.id, false, r.dropoff});  // index 2i + 1
  }
}

void points_into(const std::vector<Stop>& stops, std::vector<geo::Point>& points) {
  points.clear();
  points.reserve(stops.size());
  for (const Stop& s : stops) points.push_back(s.point);
}

/// n x n stop-to-stop table built row-wise through the bulk oracle API —
/// one Dijkstra tree per row on the network oracle instead of n pointwise
/// resolutions, written straight into `table` (n * n doubles). Every
/// entry equals oracle.distance() bit for bit (the DistanceOracle row
/// contract), which is what lets the priced order stand in for
/// route_length and rider_metrics. The diagonal is pinned to 0; no route
/// uses it.
void stop_rows_into(std::span<const geo::Point> points, const geo::DistanceOracle& oracle,
                    double* table) {
  const std::size_t n = points.size();
  for (std::size_t i = 0; i < n; ++i) {
    oracle.distances_from_into(points[i], points, table + i * n);
    table[i * n + i] = 0.0;
  }
}

/// Non-owning view the search runs on, so repeated-anchor callers can
/// pair a shared stop table with a per-call start row (no table copy).
struct DistanceView {
  const double* stop_to_stop;   // n x n
  const double* start_to_stop;  // n, nullptr when unanchored
  std::size_t n = 0;

  double leading(std::size_t first_stop) const {
    return start_to_stop == nullptr ? 0.0 : start_to_stop[first_stop];
  }
};

/// Fills `scratch` with the riders' stops, the stop-to-stop table and,
/// when anchored, the anchor row; returns the view over them.
DistanceView table_into(std::span<const trace::Request> riders,
                        const geo::DistanceOracle& oracle,
                        const std::optional<geo::Point>& start, RouteScratch& scratch) {
  stops_into(riders, scratch.stops);
  points_into(scratch.stops, scratch.points);
  const std::size_t n = scratch.stops.size();
  scratch.stop_table.resize(n * n);
  stop_rows_into(scratch.points, oracle, scratch.stop_table.data());
  const double* start_row = nullptr;
  if (start.has_value()) {
    scratch.start_row.resize(n);
    oracle.distances_from_into(*start, scratch.points, scratch.start_row.data());
    start_row = scratch.start_row.data();
  }
  return DistanceView{scratch.stop_table.data(), start_row, n};
}

/// Branch-and-bound over precedence-feasible stop orders, in fixed
/// arrays. Stops are tried in index order and only a strictly shorter
/// complete order replaces the best, so among equal-length orders the
/// first found (the lexicographically smallest) wins. Placed stops are
/// one bit each in `used`.
struct OrderSearch {
  DistanceView distances;
  std::array<std::uint8_t, kMaxRouteStops> order{};
  std::array<std::uint8_t, kMaxRouteStops> best_order{};
  std::size_t depth = 0;
  double best_length = std::numeric_limits<double>::infinity();
  std::uint32_t used = 0;

  bool placed(std::size_t s) const { return (used >> s) & 1u; }

  void recurse(double length_so_far) {
    if (length_so_far >= best_length) return;  // prune
    const std::size_t n = distances.n;
    if (depth == n) {
      best_length = length_so_far;
      best_order = order;
      return;
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (placed(s)) continue;
      // Drop-off (odd index) requires its pick-up (s - 1) already placed.
      if (s % 2 == 1 && !placed(s - 1)) continue;
      const double leg = depth == 0 ? distances.leading(s)
                                    : distances.stop_to_stop[order[depth - 1] * n + s];
      used ^= std::uint32_t{1} << s;
      order[depth++] = static_cast<std::uint8_t>(s);
      recurse(length_so_far + leg);
      --depth;
      used ^= std::uint32_t{1} << s;
    }
  }
};

/// Searches the view and prices the optimal order from it. The fold is
/// route_length's and rider_metrics': start at 0.0, add the leading leg
/// (0.0 when unanchored) and then each stop-to-stop leg in route order.
PricedOrder search_order(const DistanceView& distances) {
  const std::size_t n = distances.n;
  O2O_EXPECTS(n >= 2 && n <= kMaxRouteStops && n % 2 == 0);
  OrderSearch search{distances};
  search.recurse(0.0);
  PricedOrder priced;
  priced.order = search.best_order;
  priced.stop_count = n;
  O2O_ENSURES(respects_precedence(priced));
  double travelled = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    travelled += k == 0 ? distances.leading(priced.order[0])
                        : distances.stop_to_stop[priced.order[k - 1] * n + priced.order[k]];
    priced.arrival_km[priced.order[k]] = travelled;
  }
  priced.length_km = travelled;
  return priced;
}

}  // namespace

bool respects_precedence(const PricedOrder& priced) {
  std::uint32_t placed = 0;
  for (std::size_t k = 0; k < priced.stop_count; ++k) {
    const std::size_t s = priced.order[k];
    if (s >= priced.stop_count || ((placed >> s) & 1u)) return false;
    if (s % 2 == 1 && !((placed >> (s - 1)) & 1u)) return false;
    placed |= std::uint32_t{1} << s;
  }
  // stop_count distinct indices below stop_count: every stop is present.
  return true;
}

Route route_from_order(std::span<const Stop> stops, const PricedOrder& priced,
                       std::optional<geo::Point> start) {
  O2O_EXPECTS(stops.size() == priced.stop_count);
  Route route;
  route.start = start;
  route.stops.reserve(priced.stop_count);
  for (std::size_t k = 0; k < priced.stop_count; ++k) {
    route.stops.push_back(stops[priced.order[k]]);
  }
  O2O_ENSURES(respects_precedence(route));
  return route;
}

PricedOrder optimal_order(std::span<const trace::Request> riders,
                          const geo::DistanceOracle& oracle, std::optional<geo::Point> start,
                          RouteScratch& scratch) {
  O2O_EXPECTS(!riders.empty() && riders.size() <= kMaxRouteRiders);
  return search_order(table_into(riders, oracle, start, scratch));
}

Route optimal_route(std::span<const trace::Request> riders, const geo::DistanceOracle& oracle,
                    std::optional<geo::Point> start) {
  RouteScratch scratch;
  const PricedOrder priced = optimal_order(riders, oracle, start, scratch);
  return route_from_order(scratch.stops, priced, start);
}

AnchoredRouteSolver::AnchoredRouteSolver(std::span<const trace::Request> riders,
                                         const geo::DistanceOracle& oracle)
    : stop_count_(2 * riders.size()), oracle_(oracle) {
  O2O_EXPECTS(!riders.empty() && riders.size() <= kMaxRouteRiders);
  for (std::size_t m = 0; m < riders.size(); ++m) {
    stops_[2 * m] = Stop{riders[m].id, true, riders[m].pickup};
    stops_[2 * m + 1] = Stop{riders[m].id, false, riders[m].dropoff};
    points_[2 * m] = riders[m].pickup;
    points_[2 * m + 1] = riders[m].dropoff;
  }
  stop_rows_into(points(), oracle, stop_table_.data());
}

PricedOrder AnchoredRouteSolver::best_order(const geo::Point& start) const {
  // Per-call state is just the anchor row; the shared stop table is
  // referenced in place (one bulk query, no n x n copy per candidate).
  std::array<double, kMaxRouteStops> start_row{};
  oracle_.distances_from_into(start, points(), start_row.data());
  return search_order(DistanceView{stop_table_.data(), start_row.data(), stop_count_});
}

Route AnchoredRouteSolver::best_route(const geo::Point& start) const {
  return route_from_order({stops_.data(), stop_count_}, best_order(start), start);
}

long long feasible_order_count(int riders) {
  O2O_EXPECTS(riders >= 0 && riders <= 10);
  long long count = 1;
  for (int i = 1; i <= 2 * riders; ++i) count *= i;
  for (int i = 0; i < riders; ++i) count /= 2;
  return count;
}

}  // namespace o2o::routing
