// Dense all-pairs preference builds: every (request, taxi) pair is scored
// into |R|×|T| matrices with no spatial grid and handed to
// PreferenceProfile::from_scores. They are the differential references
// the grid-pruned builders in core/preferences and core/sharing must
// reproduce list for list and score for score; do not modify them when
// tuning the builders.
#pragma once

#include <span>

#include "core/preferences.h"
#include "core/sharing.h"
#include "geo/distance_oracle.h"
#include "trace/fleet.h"
#include "trace/request.h"

namespace o2o::core::reference {

/// Same contract as build_nonsharing_profile: one bulk distances_to over
/// every taxi per request, serially, and no grid at any threshold.
PreferenceProfile dense_nonsharing_profile(std::span<const trace::Taxi> taxis,
                                           std::span<const trace::Request> requests,
                                           const geo::DistanceOracle& oracle,
                                           const PreferenceParams& params);

/// The sharing profile over `units` (from pack_requests on the same
/// requests): every seat-feasible (unit, taxi) pair is priced against the
/// mean-pick-up bound and the candidate_taxis_per_unit cap, with no grid.
PreferenceProfile dense_sharing_profile(std::span<const trace::Taxi> taxis,
                                        std::span<const trace::Request> requests,
                                        const geo::DistanceOracle& oracle,
                                        const SharingParams& params,
                                        const SharingUnits& units);

/// Algorithm 3 over dense_sharing_profile with serial deferred acceptance
/// on `params.side`. Assignments carry the unit, taxi and scores; their
/// routes are left empty.
SharingOutcome dense_dispatch_sharing(std::span<const trace::Taxi> taxis,
                                      std::span<const trace::Request> requests,
                                      const geo::DistanceOracle& oracle,
                                      const SharingParams& params);

}  // namespace o2o::core::reference
