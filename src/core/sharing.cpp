#include "core/sharing.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>

#include "core/shard_engine.h"
#include "index/spatial_grid.h"
#include "obs/obs.h"
#include "routing/optimizer.h"
#include "util/contracts.h"

namespace o2o::core {

SharingUnits pack_requests(std::span<const trace::Request> requests,
                           const geo::DistanceOracle& oracle, const SharingParams& params,
                           packing::GroupCache* group_cache) {
  SharingUnits result;
  const std::vector<packing::ShareGroup> groups = packing::enumerate_share_groups(
      requests, oracle, params.grouping, params.taxi_seats, group_cache);
  result.feasible_groups = groups.size();

  packing::SetPackingProblem problem;
  problem.universe_size = requests.size();
  problem.sets.reserve(groups.size());
  for (const packing::ShareGroup& group : groups) {
    std::vector<std::size_t> members = group.member_indices;
    std::sort(members.begin(), members.end());
    problem.sets.push_back(std::move(members));
    switch (params.objective) {
      case PackingObjective::kCount:
        break;  // unit weights, Eq. 1 as written
      case PackingObjective::kRiders:
        problem.weights.push_back(static_cast<double>(group.member_indices.size()));
        break;
      case PackingObjective::kSavings:
        problem.weights.push_back(
            std::max(1e-6, group.direct_sum_km - group.pooled_length_km));
        break;
    }
  }

  packing::Packing packed;
  {
    obs::StageTimer stage(obs::Stage::kPacking);
    obs::gauge_max(obs::Gauge::kPackingSetsPeak, problem.sets.size());
    switch (params.packing) {
      case PackingSolver::kLocalSearch:
        packed = packing::solve_local_search(problem);
        break;
      case PackingSolver::kGreedy:
        packed = packing::solve_greedy(problem);
        break;
      case PackingSolver::kExact:
        if (problem.sets.size() > params.exact_max_sets) {
          // Oversized frame: degrade to the approximation instead of
          // aborting the dispatch. This is the single counting site for
          // exact-packing fallbacks: the registry counter is the source
          // of truth, and the legacy SharingUnits / SharingOutcome
          // fields both derive from this one increment (dispatch_sharing
          // asserts they stay in sync until they are removed).
          obs::add(obs::Counter::kExactFallbacks);
          ++result.exact_fallbacks;
          packed = packing::solve_local_search(problem);
        } else {
          packed = packing::solve_exact(problem, params.exact_max_sets);
        }
        break;
    }
  }
  result.packed_groups = packed.size();
  obs::add(obs::Counter::kPackedGroups, packed.size());

  std::vector<bool> covered(requests.size(), false);
  for (std::size_t set_index : packed) {
    result.units.push_back(problem.sets[set_index]);
    // Re-align the enumeration's per-member direct distances with the
    // unit's sorted member order.
    const packing::ShareGroup& group = groups[set_index];
    std::vector<std::pair<std::size_t, double>> paired;
    paired.reserve(group.member_indices.size());
    for (std::size_t m = 0; m < group.member_indices.size(); ++m) {
      paired.emplace_back(group.member_indices[m], group.member_direct_km[m]);
    }
    std::sort(paired.begin(), paired.end());
    std::vector<double> directs;
    directs.reserve(paired.size());
    for (const auto& [member, d] : paired) directs.push_back(d);
    result.unit_direct_km.push_back(std::move(directs));
    for (std::size_t member : problem.sets[set_index]) covered[member] = true;
  }
  // R' of Algorithm 3: requests outside every packed subset ride alone.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!covered[i]) {
      result.units.push_back({i});
      result.unit_direct_km.push_back(
          {oracle.distance(requests[i].pickup, requests[i].dropoff)});
    }
  }
  return result;
}

SharingOutcome dispatch_sharing(std::span<const trace::Taxi> taxis,
                                std::span<const trace::Request> requests,
                                const geo::DistanceOracle& oracle,
                                const SharingParams& params,
                                const index::SpatialGrid* taxi_grid,
                                packing::GroupCache* group_cache,
                                std::span<const int> request_warm_taxi) {
  O2O_EXPECTS(request_warm_taxi.empty() || request_warm_taxi.size() == requests.size());
  SharingOutcome outcome;
  SharingUnits units = pack_requests(requests, oracle, params, group_cache);
  outcome.packed_groups = units.packed_groups;
  outcome.feasible_groups = units.feasible_groups;
  outcome.exact_fallbacks = units.exact_fallbacks;
  // Both legacy fields mirror the one increment in pack_requests (the
  // obs::Counter::kExactFallbacks registry entry is the source of truth).
  O2O_ENSURES(outcome.exact_fallbacks == units.exact_fallbacks);
  const std::size_t n_units = units.units.size();
  const std::size_t n_taxis = taxis.size();
  obs::gauge_max(obs::Gauge::kUnitsPeak, n_units);

  // The sharing profile build (anchored routes + candidate scoring) is
  // one stage; the timer is released before Algorithm 1 runs so
  // kProfileBuild and kStableMatching stay disjoint.
  std::optional<obs::StageTimer> profile_stage;
  profile_stage.emplace(obs::Stage::kProfileBuild);

  // Per-unit anchored-route solvers plus direct-trip sums (reused across
  // all candidate taxis). Direct distances ride along from packing — no
  // second oracle pass over the members.
  const std::vector<std::vector<double>>& direct = units.unit_direct_km;
  std::vector<routing::AnchoredRouteSolver> solvers;
  std::vector<double> direct_sum(n_units, 0.0);
  std::vector<int> unit_seats(n_units, 0);
  solvers.reserve(n_units);
  for (std::size_t u = 0; u < n_units; ++u) {
    std::vector<trace::Request> riders;
    riders.reserve(units.units[u].size());
    for (std::size_t index : units.units[u]) {
      riders.push_back(requests[index]);
      unit_seats[u] += requests[index].seats;
    }
    for (const double d : direct[u]) direct_sum[u] += d;
    solvers.emplace_back(std::move(riders), oracle);
  }

  // Sparse candidate rows over (unit, taxi), plus the per-unit routes for
  // kept candidates, aligned with the rows (ascending taxi index).
  const double passenger_threshold = params.preference.passenger_threshold_km;
  const bool prune = params.preference.spatial_prune &&
                     std::isfinite(passenger_threshold) && n_taxis > 0;
  std::optional<index::SpatialGrid> local_grid;
  if (prune && taxi_grid == nullptr) {
    const double cell_km = std::clamp(passenger_threshold / 2.0, 0.25, 8.0);
    local_grid.emplace(taxis, cell_km);
    taxi_grid = &*local_grid;
  }
  if (!prune) taxi_grid = nullptr;
  if (taxi_grid != nullptr) O2O_EXPECTS(taxi_grid->size() == n_taxis);

  std::vector<std::vector<PreferenceProfile::Candidate>> rows(n_units);
  std::vector<std::vector<std::pair<int, routing::Route>>> unit_routes(n_units);

  for_each_row(n_units, oracle, [&](std::size_t u) {
    const auto& member_indices = units.units[u];

    // Candidate taxis. A taxi passes the mean-pick-up bound below only if
    // some member's oracle pick-up distance is within the passenger
    // threshold, and oracle distances dominate the straight-line metric
    // the grid filters on — so the union of the members' radius queries
    // covers every taxi the dense scan would keep.
    std::vector<int> candidate_ids;
    if (taxi_grid != nullptr) {
      for (std::size_t index : member_indices) {
        const std::vector<std::int32_t> nearby =
            taxi_grid->within_radius(requests[index].pickup, passenger_threshold);
        candidate_ids.insert(candidate_ids.end(), nearby.begin(), nearby.end());
      }
      std::sort(candidate_ids.begin(), candidate_ids.end());
      candidate_ids.erase(std::unique(candidate_ids.begin(), candidate_ids.end()),
                          candidate_ids.end());
    } else {
      candidate_ids.resize(n_taxis);
      std::iota(candidate_ids.begin(), candidate_ids.end(), 0);
    }

    // Mean direct pick-up distance per candidate: it lower-bounds the
    // unit's passenger score (along-route waits dominate direct distances
    // and detours are non-negative), so it both implements the threshold
    // prefilter and ranks taxis for the candidate cap. Seat-feasible
    // candidates are gathered first, then priced with one bulk distance
    // call per member (one reverse tree per pick-up on the network
    // oracle); the per-candidate accumulation order over members is
    // unchanged.
    std::vector<int> feasible;
    std::vector<geo::Point> locations;
    feasible.reserve(candidate_ids.size());
    locations.reserve(candidate_ids.size());
    for (const int candidate : candidate_ids) {
      const auto t = static_cast<std::size_t>(candidate);
      if (taxis[t].seats < unit_seats[u]) continue;
      feasible.push_back(candidate);
      locations.push_back(taxis[t].location);
    }
    std::vector<double> totals(feasible.size(), 0.0);
    for (std::size_t index : member_indices) {
      const std::vector<double> pickups =
          oracle.distances_to(locations, requests[index].pickup);
      for (std::size_t k = 0; k < feasible.size(); ++k) totals[k] += pickups[k];
    }
    std::vector<std::pair<double, int>> passing;  // (bound, taxi)
    passing.reserve(feasible.size());
    for (std::size_t k = 0; k < feasible.size(); ++k) {
      const double bound = totals[k] / static_cast<double>(member_indices.size());
      if (bound > passenger_threshold) continue;
      passing.emplace_back(bound, feasible[k]);
    }

    // Hard candidate cap: keep exactly the K best by (bound, taxi index).
    // The pair comparator breaks bound ties deterministically instead of
    // admitting every taxi tied at the K-th bound.
    if (params.candidate_taxis_per_unit > 0 &&
        passing.size() > params.candidate_taxis_per_unit) {
      const auto kth =
          passing.begin() + static_cast<std::ptrdiff_t>(params.candidate_taxis_per_unit);
      std::nth_element(passing.begin(), kth - 1, passing.end());
      passing.resize(params.candidate_taxis_per_unit);
    }
    std::sort(passing.begin(), passing.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });

    rows[u].reserve(passing.size());
    unit_routes[u].reserve(passing.size());
    for (const auto& [bound, candidate] : passing) {
      const auto t = static_cast<std::size_t>(candidate);
      // The route comes priced from the solver's own table: D_ck(t) and
      // every member's along-route distances without a pointwise pass.
      routing::PricedRoute priced = solvers[u].best_route(taxis[t].location);
      const double total_length = priced.length_km;

      // Passenger side: average over members of
      //   D_ck(t, r.s) + β [D_ck(r.s, r.d) - D(r.s, r.d)].
      double passenger_sum = 0.0;
      for (std::size_t m = 0; m < member_indices.size(); ++m) {
        const routing::RiderMetrics metrics = priced.rider(m);
        passenger_sum +=
            metrics.wait_km + params.preference.beta * (metrics.ride_km - direct[u][m]);
      }
      const double passenger_avg =
          passenger_sum / static_cast<double>(member_indices.size());

      // Taxi side: D_ck(t) - (α + 1) Σ D(r.s, r.d).
      const double taxi_value =
          total_length - (params.preference.alpha + 1.0) * direct_sum[u];

      const double passenger_score =
          passenger_avg <= passenger_threshold ? passenger_avg : kUnacceptable;
      const double taxi_score =
          taxi_value <= params.preference.taxi_threshold_score ? taxi_value : kUnacceptable;
      if (passenger_score == kUnacceptable && taxi_score == kUnacceptable) continue;
      rows[u].push_back({candidate, passenger_score, taxi_score});
      unit_routes[u].emplace_back(candidate, std::move(priced.route));
    }
    obs::add(obs::Counter::kPreferencePairs, rows[u].size());
  });

  if (obs::tracing_active()) {
    std::size_t pairs = 0;
    for (const auto& row : rows) pairs += row.size();
    obs::gauge_max(obs::Gauge::kProfilePairsPeak, pairs);
  }
  const PreferenceProfile profile = PreferenceProfile::from_candidates(
      std::move(rows), n_taxis, params.preference.list_cap);
  profile_stage.reset();

  // Lift per-request warm hints to the unit level: a unit is hinted only
  // when every member remembers the same taxi, and duplicate claims are
  // resolved ascending (first unit keeps the taxi). Validation inside
  // the engine discards anything stale, so this is purely a speedup.
  std::vector<int> unit_seed;
  if (!request_warm_taxi.empty() && n_units > 0) {
    unit_seed.assign(n_units, kDummy);
    std::vector<std::uint8_t> claimed(n_taxis, 0);
    for (std::size_t u = 0; u < n_units; ++u) {
      const auto& member_indices = units.units[u];
      int hint = request_warm_taxi[member_indices.front()];
      for (std::size_t m = 1; m < member_indices.size() && hint != kDummy; ++m) {
        if (request_warm_taxi[member_indices[m]] != hint) hint = kDummy;
      }
      if (hint == kDummy) continue;
      O2O_EXPECTS(hint >= 0 && static_cast<std::size_t>(hint) < n_taxis);
      if (claimed[static_cast<std::size_t>(hint)]) continue;
      claimed[static_cast<std::size_t>(hint)] = 1;
      unit_seed[u] = hint;
    }
  }
  const Matching matching =
      sharded_gale_shapley(profile, params.side, params.sharding, unit_seed);

  for (std::size_t u = 0; u < n_units; ++u) {
    const int t = matching.request_to_taxi[u];
    if (t == kDummy) {
      for (std::size_t index : units.units[u]) {
        outcome.unserved_request_indices.push_back(index);
      }
      continue;
    }
    SharedAssignment assignment;
    assignment.taxi_index = static_cast<std::size_t>(t);
    assignment.request_indices = units.units[u];
    auto& row_routes = unit_routes[u];
    const auto route_it = std::lower_bound(
        row_routes.begin(), row_routes.end(), t,
        [](const std::pair<int, routing::Route>& entry, int value) {
          return entry.first < value;
        });
    O2O_EXPECTS(route_it != row_routes.end() && route_it->first == t);
    assignment.route = std::move(route_it->second);
    assignment.passenger_score = profile.passenger_score(u, static_cast<std::size_t>(t));
    assignment.taxi_score = profile.taxi_score(static_cast<std::size_t>(t), u);
    outcome.assignments.push_back(std::move(assignment));
  }
  std::sort(outcome.unserved_request_indices.begin(),
            outcome.unserved_request_indices.end());
  return outcome;
}

}  // namespace o2o::core
