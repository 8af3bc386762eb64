#include "packing/groups.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iterator>

#include "index/spatial_grid.h"
#include "obs/obs.h"
#include "packing/bitset.h"
#include "packing/group_enum.h"
#include "routing/optimizer.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace o2o::packing {

namespace {

/// Absorbs squared-vs-hypot ulp differences between the grid's candidate
/// query and the exact predicates re-applied afterwards, so the grid is a
/// strict superset filter.
constexpr double kGridPadKm = 1e-6;

/// Parallel evaluation into disjoint preallocated slots. Mirrors
/// core::for_each_row (that helper lives in o2o_core, which links this
/// library — so packing keeps its own copy of the gating policy).
/// Returns whether the work actually fanned out over the pool.
bool parallel_eval(std::size_t count, const geo::DistanceOracle& oracle,
                   const std::function<void(std::size_t)>& body) {
  // Below this, fan-out overhead dominates the oracle calls saved.
  constexpr std::size_t kSerialCutoff = 16;
  ThreadPool& pool = ThreadPool::shared();
  if (count < kSerialCutoff || pool.worker_count() == 0 ||
      !oracle.capabilities().concurrent_queries) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return false;
  }
  pool.parallel_for(0, count, /*grain=*/8, body);
  return true;
}

constexpr std::uint64_t pair_key(std::size_t i, std::size_t j) {
  return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
}

/// Dedupes pair keys to the serial lexicographic (i, j) order. Equivalent
/// to a global sort + unique, but the first member is bounded by n, so a
/// counting-sort scatter plus short per-bucket sorts beats comparison-
/// sorting the whole emission (~2 keys per surviving pair).
void sort_dedup_pair_keys(std::size_t n, std::vector<std::uint64_t>& pair_keys) {
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (const std::uint64_t key : pair_keys) ++offsets[(key >> 32) + 1];
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  std::vector<std::uint64_t> scattered(pair_keys.size());
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const std::uint64_t key : pair_keys) scattered[cursor[key >> 32]++] = key;
  std::size_t write = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = offsets[i];
    const std::size_t hi = offsets[i + 1];
    std::sort(scattered.begin() + static_cast<std::ptrdiff_t>(lo),
              scattered.begin() + static_cast<std::ptrdiff_t>(hi));
    for (std::size_t k = lo; k < hi; ++k) {
      if (write > 0 && pair_keys[write - 1] == scattered[k]) continue;
      pair_keys[write++] = scattered[k];
    }
  }
  pair_keys.resize(write);
}

/// Per-thread buffers for the engine's exact evaluations: the rider copy
/// plus the route solver's scratch. Reused across every candidate a
/// worker touches; the arithmetic is exactly evaluate_group's.
struct EvalScratch {
  std::vector<trace::Request> riders;
  routing::RouteScratch route;
};

/// evaluate_group writing into a caller-owned slot through reusable
/// buffers. Same operations in the same order as the public entry point
/// (which delegates here), so verdicts and payloads are bit-identical.
/// The search returns a priced stop order; a route is built from it only
/// when `route` is non-null.
void evaluate_group_into(std::span<const trace::Request> requests,
                         const std::size_t* members, std::size_t count,
                         const geo::DistanceOracle& oracle, const GroupOptions& options,
                         int taxi_seats, bool& feasible, ShareGroup& group,
                         EvalScratch& scratch, routing::Route* route = nullptr) {
  O2O_EXPECTS(count >= 2 && count <= MemberList::kCapacity);
  group = ShareGroup{};
  group.member_indices.assign(members, count);
  feasible = true;

  int seats_needed = 0;
  scratch.riders.clear();
  for (std::size_t m = 0; m < count; ++m) {
    O2O_EXPECTS(members[m] < requests.size());
    scratch.riders.push_back(requests[members[m]]);
    seats_needed += requests[members[m]].seats;
  }
  if (seats_needed > taxi_seats) {
    feasible = false;
    return;
  }

  // Lengths, direct trips and detours all come from the table the route
  // search ran on; no pointwise oracle call re-prices the chosen route.
  const routing::PricedOrder priced =
      routing::optimal_order(scratch.riders, oracle, std::nullopt, scratch.route);
  if (route != nullptr) {
    *route = routing::route_from_order(scratch.route.stops, priced, std::nullopt);
  }
  group.pooled_length_km = priced.length_km;
  for (std::size_t m = 0; m < count; ++m) {
    const double direct = scratch.route.direct_km(m);
    const double detour = priced.rider(m).ride_km - direct;
    group.member_direct_km[m] = direct;
    group.direct_sum_km += direct;
    group.max_detour_km = std::max(group.max_detour_km, detour);
    if (detour > options.detour_threshold_km) feasible = false;
  }
  if (options.require_saving && group.pooled_length_km >= group.direct_sum_km - 1e-9) {
    feasible = false;
  }
}

/// Lexicographic order of two groups' member lists.
bool members_less(const ShareGroup& a, const ShareGroup& b) {
  return std::lexicographical_compare(a.member_indices.begin(), a.member_indices.end(),
                                      b.member_indices.begin(), b.member_indices.end());
}

/// Appends to `out` the merge of two lexicographically sorted, disjoint
/// group ranges (replayed all-clean groups and fresh churn groups).
void merge_groups(std::span<const ShareGroup> a, std::span<const ShareGroup> b,
                  std::vector<ShareGroup>& out) {
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out), members_less);
}

/// The grid-pruned, thread-parallel engine. Produces the dense serial
/// scan's exact output: candidate generation only ever *drops* provably
/// infeasible or radius-excluded pairs, evaluations write disjoint slots
/// keyed by the deterministic candidate order, and compaction replays
/// that order serially. With a cache, the all-clean groups are replayed
/// from the last output and only candidates with a churn member are
/// generated and resolved here.
std::vector<ShareGroup> enumerate_engine(std::span<const trace::Request> requests,
                                         const geo::DistanceOracle& oracle,
                                         const GroupOptions& options, int taxi_seats,
                                         GroupCache* cache) {
  std::vector<ShareGroup> groups;
  const std::size_t n = requests.size();
  if (n < 2) return groups;

  const double user_radius = options.pickup_radius_km;
  const bool user_finite = std::isfinite(user_radius);
  // The derived pick-up bound (see GroupOptions::pickup_radius_km) needs
  // both the saving constraint and a finite θ; without saving, a
  // sequential pooled route is legal and pairs share at any distance.
  const bool derived_valid =
      options.require_saving && std::isfinite(options.detour_threshold_km);

  // Exactly the dense scan's predicate (hypot compare — the grid's
  // squared compare is only ever used with padded radii as a superset).
  const auto pickups_close = [&](std::size_t i, std::size_t j) {
    if (!user_finite) return true;
    return geo::euclidean_distance(requests[i].pickup, requests[j].pickup) <= user_radius;
  };

  std::vector<geo::Point> pickups(n);
  for (std::size_t i = 0; i < n; ++i) pickups[i] = requests[i].pickup;

  // The SIMD certificate's order restriction (a saving pair's optimal
  // route is never sequential) rests on require_saving, not on θ being
  // finite, so it can run even with an infinite detour threshold.
  const bool simd_gate = options.require_saving;
  const bool cone_gate = derived_valid;
  const bool sparse_path = user_finite || derived_valid;

  // A warm frame replays its all-clean groups; everything below touches
  // only candidates with a churn member (every candidate on a cold frame).
  const GroupCache::Frame* frame =
      cache != nullptr ? &cache->begin_frame(requests, options, taxi_seats, &oracle) : nullptr;
  const bool warm = frame != nullptr && frame->clean_count() > 0;
  const auto churn = [&](std::size_t i) { return !warm || frame->clean[i] == 0; };

  std::vector<double> direct(n, 0.0);
  const bool need_direct = derived_valid || simd_gate;
  if (need_direct) {
    if (warm) {
      // Clean requests reuse the oracle's bitwise result from the last
      // enumeration; only churn pays fresh oracle calls.
      for (std::size_t i = 0; i < n; ++i) {
        if (!churn(i)) direct[i] = cache->last_direct(i);
      }
      const std::vector<std::uint32_t>& fresh = frame->churn;
      parallel_eval(fresh.size(), oracle, [&](std::size_t k) {
        const std::size_t i = fresh[k];
        direct[i] = oracle.distance(requests[i].pickup, requests[i].dropoff);
      });
    } else {
      parallel_eval(n, oracle, [&](std::size_t i) {
        direct[i] = oracle.distance(requests[i].pickup, requests[i].dropoff);
      });
    }
  }

  // ---- Pair candidates with a churn member: grid radius queries
  // instead of the n^2 scan ----
  std::vector<std::uint64_t> pair_keys;
  {
    obs::StageTimer gen_stage(obs::Stage::kCandidateGen);
    if (!sparse_path) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (churn(i) || churn(j)) pair_keys.push_back(pair_key(i, j));
        }
      }
      obs::add(obs::Counter::kPairCandidates, pair_keys.size());
    } else {
      // Query radius per request: the user cap and/or the derived bound
      // θ/2 + direct_i. A feasible pair is found from whichever side rides
      // first, so the union of both queries covers it.
      std::vector<double> radius(n);
      double mean_radius = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double r = user_finite ? user_radius : std::numeric_limits<double>::infinity();
        if (derived_valid) r = std::min(r, options.detour_threshold_km / 2.0 + direct[i]);
        radius[i] = r + kGridPadKm;
        mean_radius += radius[i];
      }
      mean_radius /= static_cast<double>(n);
      const double cell_km = std::clamp(mean_radius / 2.0, 0.25, 8.0);
      std::vector<std::int32_t> hits;
      if (warm) {
        // (1) Churn requests query the persistent pickup grid with their
        // own radii (covering the radius[c] side of every churn pair) ...
        const index::SpatialGrid* pgrid = cache->pickup_grid(cell_km);
        O2O_EXPECTS(pgrid != nullptr);  // a warm frame's ids are distinct
        for (const std::uint32_t c : frame->churn) {
          hits.clear();
          pgrid->within_radius_into(pickups[c], radius[c], hits);
          for (const std::int32_t id : hits) {
            const std::size_t j = cache->index_of(id);
            if (j == GroupCache::kNoIndex || j == c) continue;
            const std::size_t a = std::min<std::size_t>(c, j);
            const std::size_t b = std::max<std::size_t>(c, j);
            if (!pickups_close(a, b)) continue;
            pair_keys.push_back(pair_key(a, b));
          }
        }
        // (2) ... and every clean request queries a churn-only grid with
        // *its* radius, covering churn pairs reachable from the clean
        // side alone. Churn-churn pairs are covered by both members' own
        // queries in (1).
        if (!frame->churn.empty()) {
          std::vector<geo::Point> churn_pickups;
          churn_pickups.reserve(frame->churn.size());
          for (const std::uint32_t c : frame->churn) churn_pickups.push_back(pickups[c]);
          const index::SpatialGrid churn_grid(churn_pickups, cell_km);
          for (std::size_t u = 0; u < n; ++u) {
            if (churn(u)) continue;
            hits.clear();
            churn_grid.within_radius_into(pickups[u], radius[u], hits);
            for (const std::int32_t h : hits) {
              const std::size_t c = frame->churn[static_cast<std::size_t>(h)];
              const std::size_t a = std::min(u, c);
              const std::size_t b = std::max(u, c);
              if (!pickups_close(a, b)) continue;
              pair_keys.push_back(pair_key(a, b));
            }
          }
        }
      } else {
        // Cold frame: one fresh grid over all pick-ups. The persistent
        // grid still follows the frame, so the next warm frame patches a
        // delta instead of building it.
        if (frame != nullptr) cache->pickup_grid(cell_km);
        const index::SpatialGrid grid(pickups, cell_km);
        for (std::size_t i = 0; i < n; ++i) {
          hits.clear();
          grid.within_radius_into(pickups[i], radius[i], hits);
          for (const std::int32_t id : hits) {
            const auto j = static_cast<std::size_t>(id);
            if (j == i) continue;
            // Emit each unordered pair once: when the lower-indexed side's
            // own query already covers the gap (the grid's exact squared
            // compare, replicated bitwise), this sighting is its mirror —
            // skip it.
            if (j < i &&
                geo::squared_distance(pickups[i], pickups[j]) <= radius[j] * radius[j]) {
              continue;
            }
            const std::size_t a = std::min(i, j);
            const std::size_t b = std::max(i, j);
            if (!pickups_close(a, b)) continue;
            pair_keys.push_back(pair_key(a, b));
          }
        }
      }
      sort_dedup_pair_keys(n, pair_keys);
      const std::size_t clean = warm ? frame->clean_count() : 0;
      obs::add(obs::Counter::kPairCandidates, pair_keys.size());
      obs::add(obs::Counter::kGridCandidatesPruned,
               n * (n - 1) / 2 - clean * (clean - 1) / 2 - pair_keys.size());
    }
    // ---- Direction-cone prune: drop pairs whose pick-ups sit in
    // neither rider's (direct + θ) ellipse before any oracle work ----
    if (cone_gate && !pair_keys.empty()) {
      const FilterStats cone =
          cone_prune_pairs(requests, direct, options.detour_threshold_km, pair_keys);
      obs::add(obs::Counter::kConeRejects, cone.rejected);
      obs::add(obs::Counter::kSimdBatches, cone.batches);
      obs::add(obs::Counter::kSimdBatchOccupancy, cone.lanes);
    }
  }

  // ---- Resolve fresh pairs: SIMD certificate, then exact evaluation
  // for what survives, into disjoint slots in candidate order ----
  std::vector<std::uint8_t> keep;
  if (simd_gate && !pair_keys.empty()) {
    const FilterStats filter =
        simd_certify_pairs(requests, oracle, direct, options, pair_keys, keep);
    obs::add(obs::Counter::kSimdBatches, filter.batches);
    obs::add(obs::Counter::kSimdBatchOccupancy, filter.lanes);
  } else {
    keep.assign(pair_keys.size(), 1);
  }
  std::vector<std::uint64_t> eval_keys;
  eval_keys.reserve(pair_keys.size());
  for (std::size_t k = 0; k < pair_keys.size(); ++k) {
    if (keep[k]) eval_keys.push_back(pair_keys[k]);
  }
  std::vector<ShareGroup> pair_slots(eval_keys.size());
  std::vector<std::uint8_t> pair_ok(eval_keys.size(), 0);
  bool fanned = false;
  {
    obs::StageTimer eval_stage(obs::Stage::kExactEval);
    fanned = parallel_eval(eval_keys.size(), oracle, [&](std::size_t e) {
      thread_local EvalScratch scratch;
      const std::size_t members[2] = {static_cast<std::size_t>(eval_keys[e] >> 32),
                                      static_cast<std::size_t>(eval_keys[e] & 0xffffffffu)};
      bool feasible = false;
      evaluate_group_into(requests, members, 2, oracle, options, taxi_seats, feasible,
                          pair_slots[e], scratch);
      pair_ok[e] = feasible ? 1 : 0;
    });
  }
  if (fanned) obs::add(obs::Counter::kExactParallelBatches);
  std::size_t evaluations = eval_keys.size();

  std::vector<ShareGroup> fresh;
  for (std::size_t e = 0; e < eval_keys.size(); ++e) {
    if (pair_ok[e]) fresh.push_back(pair_slots[e]);
  }
  std::vector<ShareGroup> replayed;
  std::size_t replayed_pairs = 0;
  if (warm) {
    replayed_pairs = cache->replay(replayed);
    obs::add(obs::Counter::kCandidatesReused, replayed_pairs);
  }
  const std::span<const ShareGroup> replayed_view(replayed);
  groups.reserve(replayed.size() + fresh.size());
  merge_groups(replayed_view.first(replayed_pairs), fresh, groups);
  if (derived_valid) {
    // The implied bound the pruning rests on, checked on realized pairs.
    for (const ShareGroup& pair : groups) {
      const std::size_t i = pair.member_indices[0];
      const std::size_t j = pair.member_indices[1];
      const double bound =
          options.detour_threshold_km / 2.0 + std::max(direct[i], direct[j]) + kGridPadKm;
      O2O_ENSURES(geo::euclidean_distance(pickups[i], pickups[j]) <= bound);
    }
  }

  if (options.max_group_size >= 3) {
    // ---- Triple candidates with a churn member: feasible pairs in
    // lexicographic order, completions k > j with both (i, k) and (j, k)
    // feasible — one word-AND of the two adjacency rows per 64
    // candidates, masked to churn completions when i and j are both
    // clean. The dense scan's radius checks on (i, k)/(j, k) are
    // implied: those pairs passed them as pair candidates. ----
    const std::size_t pair_count = groups.size();
    BitMatrix adjacency(n);
    for (std::size_t g = 0; g < pair_count; ++g) {
      adjacency.set_symmetric(groups[g].member_indices[0], groups[g].member_indices[1]);
    }
    BlockBitset churn_mask(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (churn(i)) churn_mask.set(i);
    }
    std::vector<std::array<std::uint32_t, 3>> triples;
    for (std::size_t g = 0; g < pair_count; ++g) {
      const auto i = static_cast<std::uint32_t>(groups[g].member_indices[0]);
      const auto j = static_cast<std::uint32_t>(groups[g].member_indices[1]);
      const BitWord* mask = churn(i) || churn(j) ? nullptr : churn_mask.words();
      adjacency.for_each_common_above(i, j, j, mask, [&](std::size_t k) {
        triples.push_back({i, j, static_cast<std::uint32_t>(k)});
      });
    }
    const std::size_t triple_count = triples.size();
    obs::add(obs::Counter::kTripleCandidates, triple_count);
    // Triples skip the SIMD certificate: after the pair prune the
    // candidate volume is small, and the 6-stop order space has no cheap
    // conservative closed form worth vectorizing.
    std::vector<ShareGroup> triple_slots(triple_count);
    std::vector<std::uint8_t> triple_ok(triple_count, 0);
    bool triple_fanned = false;
    {
      obs::StageTimer eval_stage(obs::Stage::kExactEval);
      triple_fanned = parallel_eval(triple_count, oracle, [&](std::size_t c) {
        thread_local EvalScratch scratch;
        const std::size_t members[3] = {triples[c][0], triples[c][1], triples[c][2]};
        bool feasible = false;
        evaluate_group_into(requests, members, 3, oracle, options, taxi_seats, feasible,
                            triple_slots[c], scratch);
        triple_ok[c] = feasible ? 1 : 0;
      });
    }
    if (triple_fanned) obs::add(obs::Counter::kExactParallelBatches);
    evaluations += triple_count;
    fresh.clear();
    for (std::size_t c = 0; c < triple_count; ++c) {
      if (triple_ok[c]) fresh.push_back(triple_slots[c]);
    }
    groups.reserve(groups.size() + (replayed.size() - replayed_pairs) + fresh.size());
    merge_groups(replayed_view.subspan(replayed_pairs), fresh, groups);
  }
  if (cache != nullptr) cache->commit(groups, direct, evaluations);
  return groups;
}

}  // namespace

ShareGroup evaluate_group(std::span<const trace::Request> requests,
                          const std::vector<std::size_t>& member_indices,
                          const geo::DistanceOracle& oracle, const GroupOptions& options,
                          int taxi_seats, bool& feasible, routing::Route* route) {
  ShareGroup group;
  EvalScratch scratch;
  if (route != nullptr) *route = routing::Route{};
  evaluate_group_into(requests, member_indices.data(), member_indices.size(), oracle,
                      options, taxi_seats, feasible, group, scratch, route);
  return group;
}

std::vector<ShareGroup> enumerate_share_groups(std::span<const trace::Request> requests,
                                               const geo::DistanceOracle& oracle,
                                               const GroupOptions& options,
                                               int taxi_seats, GroupCache* cache) {
  O2O_EXPECTS(options.max_group_size >= 2 && options.max_group_size <= 3);
  O2O_EXPECTS(options.detour_threshold_km >= 0.0);
  obs::StageTimer stage(obs::Stage::kGroupEnum);
  const GroupCache::Stats before = cache != nullptr ? cache->stats() : GroupCache::Stats{};
  std::vector<ShareGroup> groups =
      enumerate_engine(requests, oracle, options, taxi_seats, cache);
  if (cache != nullptr) {
    const GroupCache::Stats& after = cache->stats();
    obs::add(obs::Counter::kGroupCacheHits, after.hits - before.hits);
    obs::add(obs::Counter::kGroupCacheRevalidations, after.stores - before.stores);
  }
  obs::add(obs::Counter::kFeasibleGroups, groups.size());
  return groups;
}

}  // namespace o2o::packing
