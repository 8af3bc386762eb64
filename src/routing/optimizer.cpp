#include "routing/optimizer.h"

#include <algorithm>
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
/// contract), which is what lets price_order stand in for route_length
/// and rider_metrics. The diagonal is pinned to 0; no route uses it.
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

/// Branch-and-bound over precedence-feasible stop orders. Search state
/// lives in caller-owned vectors so hot paths can reuse one set of
/// buffers across candidates; the recursion (and hence the first-found
/// tie-breaking among equal-length orders) is unchanged. Placed stops are
/// one bit each in `used`, so at most 32 stops.
struct ExhaustiveSearch {
  std::size_t stop_count;
  DistanceView distances;
  std::vector<std::size_t>& order;
  std::vector<std::size_t>& best_order;
  double best_length = std::numeric_limits<double>::infinity();
  std::uint32_t used = 0;

  static constexpr std::size_t kMaxStops = 32;

  bool placed(std::size_t s) const { return (used >> s) & 1u; }

  void recurse(double length_so_far) {
    if (length_so_far >= best_length) return;  // prune
    if (order.size() == stop_count) {
      best_length = length_so_far;
      best_order = order;
      return;
    }
    for (std::size_t s = 0; s < stop_count; ++s) {
      if (placed(s)) continue;
      // Drop-off (odd index) requires its pick-up (s - 1) already placed.
      if (s % 2 == 1 && !placed(s - 1)) continue;
      const double leg = order.empty() ? distances.leading(s)
                                       : distances.stop_to_stop[order.back() * distances.n + s];
      used ^= std::uint32_t{1} << s;
      order.push_back(s);
      recurse(length_so_far + leg);
      order.pop_back();
      used ^= std::uint32_t{1} << s;
    }
  }
};

Route route_from_order(const std::vector<Stop>& stops, const std::vector<std::size_t>& order,
                       const std::optional<geo::Point>& start) {
  Route route;
  route.start = start;
  route.stops.reserve(order.size());
  for (std::size_t s : order) route.stops.push_back(stops[s]);
  return route;
}

/// Materializes `order` and prices it from the table it was searched on.
/// The fold is route_length's and rider_metrics': start at 0.0, add the
/// leading leg (0.0 when unanchored) and then each stop-to-stop leg in
/// route order.
PricedRoute price_order(const std::vector<Stop>& stops, const std::vector<std::size_t>& order,
                        const DistanceView& distances,
                        const std::optional<geo::Point>& start) {
  PricedRoute priced;
  priced.route = route_from_order(stops, order, start);
  O2O_ENSURES(respects_precedence(priced.route));
  priced.arrival_km.resize(order.size());
  double travelled = 0.0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    travelled += k == 0 ? distances.leading(order[0])
                        : distances.stop_to_stop[order[k - 1] * distances.n + order[k]];
    priced.arrival_km[order[k]] = travelled;
  }
  priced.length_km = travelled;
  return priced;
}

/// Exhaustive search over the view; leaves the optimal order in
/// scratch.best_order.
void exhaustive_order(const DistanceView& distances, RouteScratch& scratch) {
  const std::size_t n = distances.n;
  scratch.order.clear();
  scratch.order.reserve(n);
  scratch.best_order.clear();
  O2O_EXPECTS(n <= ExhaustiveSearch::kMaxStops);
  ExhaustiveSearch search{n, distances, scratch.order, scratch.best_order};
  search.recurse(0.0);
}

/// Held-Karp DP over (visited-set, last-stop) states on the view.
std::vector<std::size_t> dp_order(const DistanceView& distances) {
  const std::size_t n = distances.n;
  const std::size_t masks = std::size_t{1} << n;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // dp[mask][last]: min length of a precedence-feasible partial route
  // visiting exactly `mask`, ending at stop `last`.
  std::vector<double> dp(masks * n, kInf);
  std::vector<int> parent(masks * n, -1);

  for (std::size_t s = 0; s < n; ++s) {
    if (s % 2 == 1) continue;  // cannot start with a drop-off
    dp[(std::size_t{1} << s) * n + s] = distances.leading(s);
  }
  for (std::size_t mask = 1; mask < masks; ++mask) {
    for (std::size_t last = 0; last < n; ++last) {
      const double length = dp[mask * n + last];
      if (length == kInf) continue;
      for (std::size_t next = 0; next < n; ++next) {
        if (mask & (std::size_t{1} << next)) continue;
        if (next % 2 == 1 && !(mask & (std::size_t{1} << (next - 1)))) continue;
        const std::size_t new_mask = mask | (std::size_t{1} << next);
        const double candidate = length + distances.stop_to_stop[last * n + next];
        if (candidate < dp[new_mask * n + next]) {
          dp[new_mask * n + next] = candidate;
          parent[new_mask * n + next] = static_cast<int>(last);
        }
      }
    }
  }

  const std::size_t full = masks - 1;
  std::size_t best_last = 0;
  double best_length = kInf;
  for (std::size_t last = 0; last < n; ++last) {
    if (dp[full * n + last] < best_length) {
      best_length = dp[full * n + last];
      best_last = last;
    }
  }
  O2O_ENSURES(best_length < kInf);

  std::vector<std::size_t> order(n);
  std::size_t mask = full;
  std::size_t at = best_last;
  for (std::size_t i = n; i-- > 0;) {
    order[i] = at;
    const int prev = parent[mask * n + at];
    mask ^= (std::size_t{1} << at);
    if (prev < 0) break;
    at = static_cast<std::size_t>(prev);
  }
  return order;
}

}  // namespace

Route optimal_route_exhaustive(std::span<const trace::Request> riders,
                               const geo::DistanceOracle& oracle,
                               std::optional<geo::Point> start) {
  O2O_EXPECTS(riders.size() >= 1 && riders.size() <= 4);
  RouteScratch scratch;
  const DistanceView distances = table_into(riders, oracle, start, scratch);
  exhaustive_order(distances, scratch);
  Route route = route_from_order(scratch.stops, scratch.best_order, start);
  O2O_ENSURES(respects_precedence(route));
  return route;
}

Route optimal_route_dp(std::span<const trace::Request> riders,
                       const geo::DistanceOracle& oracle, std::optional<geo::Point> start) {
  O2O_EXPECTS(riders.size() >= 1 && riders.size() <= 8);
  RouteScratch scratch;
  const DistanceView distances = table_into(riders, oracle, start, scratch);
  Route route = route_from_order(scratch.stops, dp_order(distances), start);
  O2O_ENSURES(respects_precedence(route));
  return route;
}

Route optimal_route(std::span<const trace::Request> riders, const geo::DistanceOracle& oracle,
                    std::optional<geo::Point> start) {
  RouteScratch scratch;
  return optimal_route(riders, oracle, start, scratch).route;
}

PricedRoute optimal_route(std::span<const trace::Request> riders,
                          const geo::DistanceOracle& oracle, std::optional<geo::Point> start,
                          RouteScratch& scratch) {
  O2O_EXPECTS(!riders.empty() && riders.size() <= 8);
  const DistanceView distances = table_into(riders, oracle, start, scratch);
  if (riders.size() <= 3) {
    exhaustive_order(distances, scratch);
    return price_order(scratch.stops, scratch.best_order, distances, start);
  }
  return price_order(scratch.stops, dp_order(distances), distances, start);
}

AnchoredRouteSolver::AnchoredRouteSolver(std::vector<trace::Request> riders,
                                         const geo::DistanceOracle& oracle)
    : riders_(std::move(riders)), oracle_(oracle) {
  O2O_EXPECTS(!riders_.empty() && riders_.size() <= 4);
  stops_into(riders_, stops_);
  points_into(stops_, points_);
  stop_table_.resize(points_.size() * points_.size());
  stop_rows_into(points_, oracle, stop_table_.data());
}

PricedRoute AnchoredRouteSolver::best_route(const geo::Point& start) const {
  const std::size_t n = stops_.size();
  // Per-call state is just the anchor row; the shared stop table is
  // referenced in place (one bulk query, no n x n copy per candidate).
  std::vector<double> start_row(n);
  oracle_.distances_from_into(start, points_, start_row.data());
  const DistanceView distances{stop_table_.data(), start_row.data(), n};
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> best_order;
  O2O_EXPECTS(n <= ExhaustiveSearch::kMaxStops);
  ExhaustiveSearch search{n, distances, order, best_order};
  search.recurse(0.0);
  return price_order(stops_, best_order, distances, start);
}

long long feasible_order_count(int riders) {
  O2O_EXPECTS(riders >= 0 && riders <= 10);
  long long count = 1;
  for (int i = 1; i <= 2 * riders; ++i) count *= i;
  for (int i = 0; i < riders; ++i) count /= 2;
  return count;
}

}  // namespace o2o::routing
