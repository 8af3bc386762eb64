// Algorithm 3 of the paper: sharing taxi dispatch.
//
//   1. Enumerate all feasible share groups c_k (detour <= θ, |c_k| <= 3).
//   2. Solve the Maximum Set Packing Problem (Eqs. 1-3) over them with
//      the local-search approximation (ratio (max|c_k|+2)/3, [21]).
//   3. Treat each packed group -- and each leftover single request -- as
//      one unit and run Algorithm 1 (or its taxi-proposing mirror for
//      STD-T) under the sharing preference model (Section V-A):
//        passenger side (averaged over the group's members):
//          D_ck(t, r.s) + β [D_ck(r.s, r.d) - D(r.s, r.d)]
//        taxi side:
//          D_ck(t) - (α + 1) Σ_{r in ck} D(r.s, r.d)
//      Both reduce to the non-sharing scores for singleton units.
#pragma once

#include <span>
#include <vector>

#include "core/preferences.h"
#include "core/shard_engine.h"
#include "core/stable_matching.h"
#include "geo/distance_oracle.h"
#include "packing/groups.h"
#include "packing/set_packing.h"
#include "routing/route.h"
#include "trace/fleet.h"
#include "trace/request.h"

namespace o2o::index {
class SpatialGrid;
}  // namespace o2o::index

namespace o2o::core {

// ProposalSide lives in core/stable_matching.h (included above); the
// sharing dispatcher reuses it to pick STD-P vs STD-T.

enum class PackingSolver {
  kLocalSearch,  ///< the paper's approximation (default)
  kGreedy,       ///< ablation: plain maximal packing
  kExact,        ///< ablation: branch & bound (small inputs only)
};

/// What Eq. 1 maximizes. The paper counts packed subsets (kCount); the
/// alternatives are natural company objectives the same machinery
/// supports (ablated in bench/ablation_packing).
enum class PackingObjective {
  kCount,    ///< Σ x_k -- the paper's objective
  kRiders,   ///< Σ |c_k| x_k -- pooled passengers
  kSavings,  ///< Σ (Σ_direct - pooled) x_k -- driven-km saved
};

struct SharingParams {
  PreferenceParams preference;       ///< α, β, thresholds, list cap
  packing::GroupOptions grouping;    ///< θ, group size, pruning
  PackingSolver packing = PackingSolver::kLocalSearch;
  PackingObjective objective = PackingObjective::kCount;
  ProposalSide side = ProposalSide::kPassengers;
  int taxi_seats = 4;                ///< capacity assumed when grouping
  /// Performance cap: evaluate each unit's anchored route against only
  /// its K nearest taxis (by mean direct pick-up distance). 0 means
  /// *uncapped* (every taxi is a candidate) -- 0 is the only sentinel.
  /// Beware assigning a negative int: the size_t conversion yields a
  /// huge "cap" that silently behaves like uncapped;
  /// DispatchConfig::validate() rejects such values.
  /// Equivalent to capping preference lists -- the matching stays stable
  /// with respect to the truncated profile (ablated in micro benches).
  std::size_t candidate_taxis_per_unit = 0;
  /// Largest instance kExact is asked to solve outright. Frames with more
  /// feasible groups degrade to the local-search approximation (counted
  /// in SharingOutcome::exact_fallbacks) instead of aborting mid-frame.
  std::size_t exact_max_sets = 10'000;
  /// Component-sharded stable matching over the packed units (see
  /// core/shard_engine.h); bit-identical to the serial pass.
  ShardOptions sharding;
};

/// One dispatched unit: a taxi serving one request or one packed group.
struct SharedAssignment {
  std::size_t taxi_index = 0;                ///< index into the taxi span
  std::vector<std::size_t> request_indices;  ///< indices into the request span
  routing::Route route;                      ///< taxi-anchored service route
  double passenger_score = 0.0;              ///< unit's (averaged) passenger score
  double taxi_score = 0.0;                   ///< unit's taxi score
};

struct SharingOutcome {
  std::vector<SharedAssignment> assignments;
  std::vector<std::size_t> unserved_request_indices;
  std::size_t packed_groups = 0;   ///< groups selected by set packing
  std::size_t feasible_groups = 0; ///< |C| before packing
  std::size_t exact_fallbacks = 0; ///< kExact frames degraded to local search
};

/// The packed units handed to Algorithm 1 (exposed for tests/benches).
struct SharingUnits {
  /// Each unit lists request indices; packed groups first, singletons after.
  std::vector<std::vector<std::size_t>> units;
  /// D(r.s, r.d) per unit member, aligned with `units` — group members'
  /// values come straight from enumeration (ShareGroup::member_direct_km),
  /// so the dispatcher never re-queries the oracle for them.
  std::vector<std::vector<double>> unit_direct_km;
  std::size_t packed_groups = 0;
  std::size_t feasible_groups = 0;
  std::size_t exact_fallbacks = 0;
};

/// Stages 1-2 of Algorithm 3: grouping + set packing. `group_cache`,
/// when given (the simulator threads it through DispatchContext), lets
/// enumeration replay verdicts across consecutive frames.
SharingUnits pack_requests(std::span<const trace::Request> requests,
                           const geo::DistanceOracle& oracle, const SharingParams& params,
                           packing::GroupCache* group_cache = nullptr);

/// Full Algorithm 3. With a finite passenger threshold, each unit's
/// candidate taxis come from grid radius queries around its members'
/// pick-ups (see candidate_grid for `taxi_grid`); otherwise every taxi
/// is a candidate. Candidates are scored from priced stop orders; a
/// route is built only for each matched unit, after matching. That route
/// is where distinct request ids matter: its precedence check tells
/// riders apart by id (pack_requests does not need them; o2o_serve
/// rejects duplicate order ids before dispatch).
///
/// `request_warm_taxi` (optional; empty disables) carries per-request
/// warm-start hints — requests.size() entries, each a taxi index into
/// `taxis` or kDummy — typically the previous frame's matching re-keyed
/// by the dispatcher. A packed unit inherits a hint only when all its
/// members agree on one taxi; hints claiming the same taxi are deduped
/// deterministically (ascending unit order, first claimant keeps). The
/// hints then pass the warm-seed validation inside sharded_gale_shapley
/// (see core/stable_matching.h), so the outcome is bit-identical to the
/// unhinted run.
SharingOutcome dispatch_sharing(std::span<const trace::Taxi> taxis,
                                std::span<const trace::Request> requests,
                                const geo::DistanceOracle& oracle,
                                const SharingParams& params,
                                const index::SpatialGrid* taxi_grid = nullptr,
                                packing::GroupCache* group_cache = nullptr,
                                std::span<const int> request_warm_taxi = {});

}  // namespace o2o::core
