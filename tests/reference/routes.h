// Reference route solvers the production search (routing/optimizer) is
// checked against: a Held-Karp dynamic program over (visited-set,
// last-stop) states, exact for any size and practical to ~8 riders, and
// a brute-force scan of every stop permutation that reproduces the
// search's tie-breaking. Both price from pointwise oracle.distance()
// calls, which equal the production table's bulk rows bit for bit.
#pragma once

#include <optional>
#include <span>

#include "geo/distance_oracle.h"
#include "routing/optimizer.h"
#include "routing/route.h"
#include "trace/request.h"

namespace o2o::routing::reference {

/// Exact minimum-length route via Held-Karp DP with precedence masks;
/// requires 1 <= riders.size() <= 8 (2^16 x 16 states).
Route optimal_route_dp(std::span<const trace::Request> riders,
                       const geo::DistanceOracle& oracle,
                       std::optional<geo::Point> start = std::nullopt);

/// Every permutation of the stop indices in lexicographic order; keeps
/// the first precedence-feasible order of least folded length, priced
/// with the production fold. Requires 1 <= riders.size() <= 4.
PricedOrder brute_force_order(std::span<const trace::Request> riders,
                              const geo::DistanceOracle& oracle,
                              std::optional<geo::Point> start);

}  // namespace o2o::routing::reference
