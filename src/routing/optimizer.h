// Optimal shared-route construction. Theorem 5 shows the general problem
// is NP-hard (reduction from shortest Hamiltonian path); the paper's
// practical regime is |c_k| <= 3 riders, where the at most
// 6!/(2!2!2!) = 90 precedence-feasible stop orders are searched
// exhaustively. One exhaustive search over fixed arrays serves every
// caller up to 4 riders (2,520 orders). It returns a priced stop order,
// not a route: callers that score many candidates read lengths and
// per-rider distances from it, and a routing::Route is built only for
// the order a caller keeps. The Held-Karp DP the search is checked
// against lives in tests/reference.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geo/distance_oracle.h"
#include "routing/route.h"
#include "trace/request.h"

namespace o2o::routing {

/// The search's size limit: 4 riders, 8 stops.
inline constexpr std::size_t kMaxRouteRiders = 4;
inline constexpr std::size_t kMaxRouteStops = 2 * kMaxRouteRiders;

/// Reusable buffers for optimal_order. Hot loops (the share-group
/// enumeration engine evaluates tens of thousands of candidate groups per
/// frame) keep one per worker thread, so the table build allocates
/// nothing once the buffers have grown.
struct RouteScratch {
  std::vector<Stop> stops;           // index 2m: rider m's pick-up, 2m + 1: drop-off
  std::vector<geo::Point> points;    // stop coordinates, bulk-query shape
  std::vector<double> stop_table;    // stop-to-stop, n x n
  std::vector<double> start_row;     // anchor legs (used when start is set)

  /// D(r_m.s, r_m.d) for rider m of the last solve: the stop-table entry
  /// [2m][2m + 1], equal to oracle.distance() bit for bit under the
  /// DistanceOracle row contract.
  double direct_km(std::size_t m) const {
    return stop_table[2 * m * stops.size() + 2 * m + 1];
  }
};

/// An optimal stop order priced from the search's own distance table, in
/// fixed arrays (no heap). Stop index 2m is rider m's pick-up and 2m + 1
/// its drop-off. Every value is the fold route_length / rider_metrics
/// run (start at 0.0, add the anchor leg first when anchored, nothing at
/// the first stop when unanchored), over table entries that equal
/// oracle.distance() bit for bit — so each equals its pointwise
/// counterpart on the materialised route exactly.
struct PricedOrder {
  std::array<std::uint8_t, kMaxRouteStops> order{};  ///< stop indices, visiting order
  /// Cumulative km on arrival at each stop, indexed by stop index.
  std::array<double, kMaxRouteStops> arrival_km{};
  std::size_t stop_count = 0;
  double length_km = 0.0;  ///< route_length of the materialised route

  /// rider_metrics(route, riders[m].id) of the materialised route.
  RiderMetrics rider(std::size_t m) const {
    return RiderMetrics{arrival_km[2 * m], arrival_km[2 * m + 1] - arrival_km[2 * m]};
  }
};

/// True iff each of the order's stop indices appears exactly once and
/// every pick-up 2m precedes its drop-off 2m + 1. Unlike the id-level
/// check on a Route, riders are told apart by position, so two riders
/// may share a RequestId.
bool respects_precedence(const PricedOrder& priced);

/// The route `priced` visits over `stops` (indexed like the stop table),
/// anchored at `start`. Checks the id-level respects_precedence, so the
/// riders need distinct ids here.
Route route_from_order(std::span<const Stop> stops, const PricedOrder& priced,
                       std::optional<geo::Point> start);

/// Exact minimum-length route over 1 to 4 `riders` (pick-up before
/// drop-off per rider), optionally anchored at a taxi position.
Route optimal_route(std::span<const trace::Request> riders,
                    const geo::DistanceOracle& oracle,
                    std::optional<geo::Point> start = std::nullopt);

/// The search behind optimal_route without the route: fills `scratch`
/// with the stops and distance table and returns the priced optimal
/// order over scratch.stops.
PricedOrder optimal_order(std::span<const trace::Request> riders,
                          const geo::DistanceOracle& oracle, std::optional<geo::Point> start,
                          RouteScratch& scratch);

/// Number of precedence-feasible stop orders for k riders: (2k)! / 2^k.
/// (The paper's "90" for k = 3.)
long long feasible_order_count(int riders);

/// Repeated-anchor optimal routing: the sharing dispatcher evaluates the
/// same rider group against every candidate taxi, so the stop-to-stop
/// distance table is computed once here and only the anchor legs vary
/// per query. Holds 1 to 4 riders in fixed arrays; a query allocates
/// nothing unless it materialises the route.
class AnchoredRouteSolver {
 public:
  AnchoredRouteSolver(std::span<const trace::Request> riders, const geo::DistanceOracle& oracle);

  /// Minimum-length stop order starting from `start`, priced from the
  /// shared stop table and the anchor row.
  PricedOrder best_order(const geo::Point& start) const;
  /// best_order(start) materialised as a route.
  Route best_route(const geo::Point& start) const;

  std::size_t rider_count() const noexcept { return stop_count_ / 2; }

 private:
  std::span<const geo::Point> points() const { return {points_.data(), stop_count_}; }

  std::array<Stop, kMaxRouteStops> stops_{};
  std::array<geo::Point, kMaxRouteStops> points_{};  // stop coordinates, bulk-query shape
  std::array<double, kMaxRouteStops * kMaxRouteStops> stop_table_{};  // n x n, built once
  std::size_t stop_count_ = 0;
  const geo::DistanceOracle& oracle_;
};

}  // namespace o2o::routing
