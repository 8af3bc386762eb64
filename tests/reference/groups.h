// The dense serial share-group scan: every pair (and every triple grown
// from feasible pairs, or every triple in exhaustive mode) evaluated
// through the public evaluate_group, in lexicographic order. It is the
// differential reference packing::enumerate_share_groups must reproduce
// bit for bit; do not modify it when tuning the engine.
#pragma once

#include <span>
#include <vector>

#include "geo/distance_oracle.h"
#include "packing/groups.h"
#include "routing/route.h"
#include "trace/request.h"

namespace o2o::packing::reference {

/// Same contract as enumerate_share_groups (without the cache): all
/// feasible groups of size in [2, options.max_group_size]. When `routes`
/// is non-null it receives each group's pooled route, aligned with the
/// returned groups.
std::vector<ShareGroup> enumerate_serial(std::span<const trace::Request> requests,
                                         const geo::DistanceOracle& oracle,
                                         const GroupOptions& options, int taxi_seats = 4,
                                         std::vector<routing::Route>* routes = nullptr);

}  // namespace o2o::packing::reference
