// The dense serial share-group scans: every pair, then every triple grown
// from feasible pairs (or, in the exhaustive scan, every triple),
// evaluated through the public evaluate_group in lexicographic order.
// enumerate_serial is the differential reference
// packing::enumerate_share_groups must reproduce bit for bit; do not
// modify it when tuning the engine.
#pragma once

#include <span>
#include <vector>

#include "geo/distance_oracle.h"
#include "packing/groups.h"
#include "routing/route.h"
#include "trace/request.h"

namespace o2o::packing::reference {

/// Same contract as enumerate_share_groups (without the cache): all
/// feasible groups of size in [2, options.max_group_size], triples grown
/// from feasible pairs. When `routes` is non-null it receives each
/// group's pooled route, aligned with the returned groups; only then are
/// routes built, and only then must request ids be distinct.
std::vector<ShareGroup> enumerate_serial(std::span<const trace::Request> requests,
                                         const geo::DistanceOracle& oracle,
                                         const GroupOptions& options, int taxi_seats = 4,
                                         std::vector<routing::Route>* routes = nullptr);

/// The paper's plain O(R^3) scan: pairs as enumerate_serial, then every
/// triple whose (i, k) and (j, k) pick-ups pass the radius cut, feasible
/// or not as a pair. Exponential but exact; it finds triples whose pairs
/// are not all feasible, which the pair-grown enumeration skips.
std::vector<ShareGroup> enumerate_exhaustive(std::span<const trace::Request> requests,
                                             const geo::DistanceOracle& oracle,
                                             const GroupOptions& options, int taxi_seats = 4,
                                             std::vector<routing::Route>* routes = nullptr);

}  // namespace o2o::packing::reference
