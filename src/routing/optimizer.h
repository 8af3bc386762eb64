// Optimal shared-route construction. Theorem 5 shows the general problem
// is NP-hard (reduction from shortest Hamiltonian path); the paper's
// practical regime is |c_k| <= 3 riders, where the at most
// 6!/(2!2!2!) = 90 precedence-feasible stop orders are searched
// exhaustively. We implement that exhaustive search for small groups and
// a Held-Karp dynamic program over (visited-set, last-stop) states --
// exact for any size, practical to ~8 riders -- used as the reference in
// tests and for the extension benchmarks.
#pragma once

#include <optional>
#include <span>

#include "geo/distance_oracle.h"
#include "routing/route.h"
#include "trace/request.h"

namespace o2o::routing {

/// Reusable buffers for the route solvers. Hot loops (the share-group
/// enumeration engine evaluates tens of thousands of candidate groups per
/// frame) keep one per worker thread so route construction allocates
/// little beyond the returned route once the buffers have grown. The
/// scratch overload runs the exact same table build and search as the
/// scratch-free entry points — identical distances, identical
/// tie-breaking, bit-identical routes.
struct RouteScratch {
  std::vector<Stop> stops;
  std::vector<geo::Point> points;    // stop coordinates, bulk-query shape
  std::vector<double> stop_table;    // stop-to-stop, n x n
  std::vector<double> start_row;     // anchor legs (used when start is set)
  std::vector<std::size_t> order;    // search state
  std::vector<std::size_t> best_order;
  std::vector<bool> used;

  /// D(r_m.s, r_m.d) for rider m of the last solve: the stop-table entry
  /// [2m][2m + 1], equal to oracle.distance() bit for bit under the
  /// DistanceOracle row contract.
  double direct_km(std::size_t m) const {
    return stop_table[2 * m * stops.size() + 2 * m + 1];
  }
};

/// An optimal route priced from the search's own distance table. Every
/// value is the fold route_length / rider_metrics run (start at 0.0, add
/// the anchor leg first when anchored, nothing at the first stop when
/// unanchored), over table entries that equal oracle.distance() bit for
/// bit — so each equals its pointwise counterpart exactly, without a
/// second pass over the oracle.
struct PricedRoute {
  Route route;
  /// Cumulative km on arrival at each rider stop, indexed like the stop
  /// table: [2m] is rider m's pick-up, [2m + 1] its drop-off.
  std::vector<double> arrival_km;
  double length_km = 0.0;  ///< route_length(route)

  /// rider_metrics(route, riders[m].id).
  RiderMetrics rider(std::size_t m) const {
    return RiderMetrics{arrival_km[2 * m], arrival_km[2 * m + 1] - arrival_km[2 * m]};
  }
};

/// Exact minimum-length route over `riders` (pick-up before drop-off per
/// rider), optionally anchored at a taxi position. Uses brute-force
/// permutation search; requires riders.size() <= 4 (90 orders at 3,
/// 2520 at 4).
Route optimal_route_exhaustive(std::span<const trace::Request> riders,
                               const geo::DistanceOracle& oracle,
                               std::optional<geo::Point> start = std::nullopt);

/// Exact minimum-length route via Held-Karp DP with precedence masks;
/// requires riders.size() <= 8 (2^16 x 16 states).
Route optimal_route_dp(std::span<const trace::Request> riders,
                       const geo::DistanceOracle& oracle,
                       std::optional<geo::Point> start = std::nullopt);

/// Dispatches to the exhaustive search for <= 3 riders (the paper's
/// regime) and to the DP above that.
Route optimal_route(std::span<const trace::Request> riders,
                    const geo::DistanceOracle& oracle,
                    std::optional<geo::Point> start = std::nullopt);

/// Dispatching variant reusing `scratch` for the distance table, and
/// returning the route priced from that table (the DP branch, taken only
/// above 3 riders, still allocates its own state).
PricedRoute optimal_route(std::span<const trace::Request> riders,
                          const geo::DistanceOracle& oracle,
                          std::optional<geo::Point> start, RouteScratch& scratch);

/// Number of precedence-feasible stop orders for k riders: (2k)! / 2^k.
/// (The paper's "90" for k = 3.)
long long feasible_order_count(int riders);

/// Repeated-anchor optimal routing: the sharing dispatcher evaluates the
/// same rider group against every candidate taxi, so the stop-to-stop
/// distance table is computed once here and only the anchor legs vary
/// per query. Exact (exhaustive) for <= 4 riders.
class AnchoredRouteSolver {
 public:
  AnchoredRouteSolver(std::vector<trace::Request> riders, const geo::DistanceOracle& oracle);

  /// Minimum-length route starting from `start`, priced from the shared
  /// stop table and the anchor row.
  PricedRoute best_route(const geo::Point& start) const;

  std::size_t rider_count() const noexcept { return riders_.size(); }

 private:
  std::vector<trace::Request> riders_;
  std::vector<Stop> stops_;
  std::vector<geo::Point> points_;  // stop coordinates, bulk-query shape
  std::vector<double> stop_table_;  // stop-to-stop, n x n (built once)
  const geo::DistanceOracle& oracle_;
};

}  // namespace o2o::routing
