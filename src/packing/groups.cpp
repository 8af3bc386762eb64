#include "packing/groups.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

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

/// Marks store_flags[k] = 1 for every key of `all_keys` absent from
/// `kept` (both sorted ascending): the filter pass between them dropped
/// it, which certifies exact infeasibility.
void flag_filtered_keys(std::span<const std::uint64_t> all_keys,
                        std::span<const std::uint64_t> kept,
                        std::vector<std::uint8_t>& store_flags) {
  std::size_t k = 0;
  for (std::size_t a = 0; a < all_keys.size(); ++a) {
    while (k < kept.size() && kept[k] < all_keys[a]) ++k;
    if (k >= kept.size() || kept[k] != all_keys[a]) store_flags[a] = 1;
  }
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
/// The route search's route is only kept when `route` is non-null.
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
  routing::PricedRoute priced =
      routing::optimal_route(scratch.riders, oracle, std::nullopt, scratch.route);
  if (route != nullptr) *route = std::move(priced.route);
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

/// The grid-pruned, thread-parallel engine. Produces the dense serial
/// scan's exact output: candidate generation only ever *drops* provably
/// infeasible or radius-excluded pairs, evaluations write disjoint slots
/// keyed by the deterministic candidate order, and compaction replays
/// that order serially.
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

  // Candidate persistence rides the sparse (radius) path only: the dense
  // all-pairs emission has no grid work to save.
  const bool sparse_path = user_finite || derived_valid;
  const GroupCache::CandidateFrame* cand =
      (cache != nullptr && sparse_path) ? &cache->begin_candidates(options.pickup_radius_km)
                                        : nullptr;

  std::vector<double> direct(n, 0.0);
  const bool need_direct = derived_valid || simd_gate;
  if (need_direct) {
    if (cand != nullptr && cand->direct_warm) {
      // Clean requests replay the oracle's bitwise result from the frame
      // that stored it; only churn pays fresh oracle calls.
      for (std::size_t i = 0; i < n; ++i) {
        if (cand->clean[i]) direct[i] = cache->persisted_direct(i);
      }
      const std::vector<std::uint32_t>& churn = cand->churn;
      parallel_eval(churn.size(), oracle, [&](std::size_t k) {
        const std::size_t i = churn[k];
        direct[i] = oracle.distance(requests[i].pickup, requests[i].dropoff);
      });
    } else {
      parallel_eval(n, oracle, [&](std::size_t i) {
        direct[i] = oracle.distance(requests[i].pickup, requests[i].dropoff);
      });
    }
  }

  // ---- Pair candidates: grid radius queries instead of the n^2 scan,
  // replaying persisted neighbor lists on warm frames ----
  std::vector<std::uint64_t> pair_keys;
  // Pre-filter keys covering every pair with a churn member (every pair
  // on a cold frame), plus the filter verdicts recorded against them —
  // exactly what store_candidates persists for the next frame.
  std::vector<std::uint64_t> store_keys;
  std::vector<std::uint8_t> store_flags;
  double cand_cell_km = 0.0;
  {
    obs::StageTimer gen_stage(obs::Stage::kCandidateGen);
    if (!sparse_path) {
      pair_keys.reserve(n * (n - 1) / 2);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) pair_keys.push_back(pair_key(i, j));
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
      cand_cell_km = cell_km;
      const index::SpatialGrid* pgrid =
          cand != nullptr ? cache->candidate_grid() : nullptr;
      std::vector<std::int32_t> hits;
      if (cand != nullptr && cand->warm && pgrid != nullptr) {
        // Warm frame. (1) Replay: clean-clean pairs come verbatim from
        // the persisted lists. Flagged neighbors carry a filter
        // certificate of exact infeasibility and are skipped; churn or
        // absent neighbors get their fresh truth from the grid queries
        // below. Emit each pair once from its lower-indexed side.
        for (std::size_t i = 0; i < n; ++i) {
          if (!cand->clean[i]) continue;
          for (const std::uint64_t packed : cache->neighbor_list(i)) {
            if (packed & 1) continue;
            const std::size_t j =
                cache->index_of(static_cast<trace::RequestId>(packed >> 1));
            if (j == GroupCache::kNoIndex || j <= i || !cand->clean[j]) continue;
            pair_keys.push_back(pair_key(i, j));
          }
        }
        const std::size_t reused = pair_keys.size();
        obs::add(obs::Counter::kCandidatesReused, reused);
        // (2) Churn requests query the persistent pickup grid with their
        // own radii (covering the radius[c] side of every churn pair) ...
        for (const std::uint32_t c : cand->churn) {
          hits.clear();
          pgrid->within_radius_into(pickups[c], radius[c], hits);
          for (const std::int32_t id : hits) {
            const std::size_t j = cache->index_of(id);
            if (j == GroupCache::kNoIndex || j == c) continue;
            const std::size_t a = std::min<std::size_t>(c, j);
            const std::size_t b = std::max<std::size_t>(c, j);
            if (!pickups_close(a, b)) continue;
            store_keys.push_back(pair_key(a, b));
          }
        }
        // (3) ... and every clean request queries a churn-only grid with
        // *its* radius, covering churn pairs reachable from the clean
        // side alone. Churn-churn pairs are covered by both members' own
        // queries in (2).
        if (!cand->churn.empty()) {
          std::vector<geo::Point> churn_pickups;
          churn_pickups.reserve(cand->churn.size());
          for (const std::uint32_t c : cand->churn) churn_pickups.push_back(pickups[c]);
          const index::SpatialGrid churn_grid(churn_pickups, cell_km);
          for (std::size_t u = 0; u < n; ++u) {
            if (!cand->clean[u]) continue;
            hits.clear();
            churn_grid.within_radius_into(pickups[u], radius[u], hits);
            for (const std::int32_t h : hits) {
              const std::size_t c = cand->churn[static_cast<std::size_t>(h)];
              const std::size_t a = std::min(u, c);
              const std::size_t b = std::max(u, c);
              if (!pickups_close(a, b)) continue;
              store_keys.push_back(pair_key(a, b));
            }
          }
        }
        sort_dedup_pair_keys(n, store_keys);
        obs::add(obs::Counter::kPairCandidates, reused + store_keys.size());
        obs::add(obs::Counter::kGridCandidatesPruned,
                 n * (n - 1) / 2 - reused - store_keys.size());
        // Direction cone runs on the churn subset only — replayed
        // pairs had their cone verdict recorded as flags when fresh.
        store_flags.assign(store_keys.size(), 0);
        std::vector<std::uint64_t> churn_kept = store_keys;
        if (cone_gate && !churn_kept.empty()) {
          const FilterStats cone = cone_prune_pairs(requests, direct,
                                                    options.detour_threshold_km, churn_kept);
          obs::add(obs::Counter::kConeRejects, cone.rejected);
          obs::add(obs::Counter::kSimdBatches, cone.batches);
          obs::add(obs::Counter::kSimdBatchOccupancy, cone.lanes);
          flag_filtered_keys(store_keys, churn_kept, store_flags);
        }
        pair_keys.insert(pair_keys.end(), churn_kept.begin(), churn_kept.end());
        sort_dedup_pair_keys(n, pair_keys);
      } else {
        // Cold frame: one fresh grid over all pick-ups.
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
        sort_dedup_pair_keys(n, pair_keys);
        obs::add(obs::Counter::kPairCandidates, pair_keys.size());
        obs::add(obs::Counter::kGridCandidatesPruned, n * (n - 1) / 2 - pair_keys.size());
        if (cand != nullptr) {
          store_keys = pair_keys;
          store_flags.assign(store_keys.size(), 0);
        }
        // ---- Direction-cone prune: drop pairs whose pick-ups sit in
        // neither rider's (direct + θ) ellipse before any oracle work ----
        if (cone_gate && !pair_keys.empty()) {
          const FilterStats cone =
              cone_prune_pairs(requests, direct, options.detour_threshold_km, pair_keys);
          obs::add(obs::Counter::kConeRejects, cone.rejected);
          obs::add(obs::Counter::kSimdBatches, cone.batches);
          obs::add(obs::Counter::kSimdBatchOccupancy, cone.lanes);
          if (cand != nullptr) flag_filtered_keys(store_keys, pair_keys, store_flags);
        }
      }
    }
  }
  // ---- Resolve pairs: cache replay, SIMD certificate, exact
  // evaluation for what survives; compact in candidate order ----
  const std::size_t pair_count = pair_keys.size();
  std::vector<ShareGroup> pair_slots(pair_count);
  std::vector<std::uint8_t> pair_ok(pair_count, 0);
  std::vector<std::uint32_t> miss_pos;  ///< candidate slots the cache could not answer
  if (cache != nullptr) {
    miss_pos.reserve(pair_count);
    for (std::size_t c = 0; c < pair_count; ++c) {
      const std::size_t members[2] = {static_cast<std::size_t>(pair_keys[c] >> 32),
                                      static_cast<std::size_t>(pair_keys[c] & 0xffffffffu)};
      switch (cache->try_get(members, 2, pair_slots[c])) {
        case GroupCache::Verdict::kFeasible:
          pair_ok[c] = 1;
          break;
        case GroupCache::Verdict::kInfeasible:
          break;
        case GroupCache::Verdict::kMiss:
          miss_pos.push_back(static_cast<std::uint32_t>(c));
          break;
      }
    }
  } else {
    miss_pos.resize(pair_count);
    for (std::size_t c = 0; c < pair_count; ++c) {
      miss_pos[c] = static_cast<std::uint32_t>(c);
    }
  }
  std::vector<std::uint8_t> miss_keep;
  std::vector<std::uint64_t> miss_keys(miss_pos.size());
  for (std::size_t m = 0; m < miss_pos.size(); ++m) miss_keys[m] = pair_keys[miss_pos[m]];
  if (simd_gate && !miss_keys.empty()) {
    const FilterStats filter =
        simd_certify_pairs(requests, oracle, direct, options, miss_keys, miss_keep);
    obs::add(obs::Counter::kSimdBatches, filter.batches);
    obs::add(obs::Counter::kSimdBatchOccupancy, filter.lanes);
  } else {
    miss_keep.assign(miss_keys.size(), 1);
  }
  if (cand != nullptr && !store_keys.empty()) {
    // Record the SIMD certificate's rejections on the persisted keys.
    // miss_keys is a sorted subset of pair_keys; replayed clean-clean
    // keys absent from store_keys simply never match in the merge.
    std::size_t s = 0;
    for (std::size_t m = 0; m < miss_keys.size(); ++m) {
      if (miss_keep[m]) continue;
      while (s < store_keys.size() && store_keys[s] < miss_keys[m]) ++s;
      if (s < store_keys.size() && store_keys[s] == miss_keys[m]) store_flags[s] = 1;
    }
  }
  // Exact evaluations write disjoint slots; certificate-rejected misses
  // keep pair_ok == 0 without touching the oracle (and are not cached --
  // re-deriving the certificate next frame is cheaper than storing it).
  std::vector<std::uint32_t> eval_pos;
  eval_pos.reserve(miss_pos.size());
  for (std::size_t m = 0; m < miss_pos.size(); ++m) {
    if (miss_keep[m]) eval_pos.push_back(miss_pos[m]);
  }
  bool fanned = false;
  {
    obs::StageTimer eval_stage(obs::Stage::kExactEval);
    fanned = parallel_eval(eval_pos.size(), oracle, [&](std::size_t e) {
      thread_local EvalScratch scratch;
      const std::size_t c = eval_pos[e];
      const std::size_t members[2] = {static_cast<std::size_t>(pair_keys[c] >> 32),
                                      static_cast<std::size_t>(pair_keys[c] & 0xffffffffu)};
      bool feasible = false;
      evaluate_group_into(requests, members, 2, oracle, options, taxi_seats, feasible,
                          pair_slots[c], scratch);
      pair_ok[c] = feasible ? 1 : 0;
    });
  }
  if (fanned) obs::add(obs::Counter::kExactParallelBatches);
  if (cache != nullptr) {
    for (const std::uint32_t c : eval_pos) {
      const std::size_t members[2] = {static_cast<std::size_t>(pair_keys[c] >> 32),
                                      static_cast<std::size_t>(pair_keys[c] & 0xffffffffu)};
      cache->store(members, 2, pair_ok[c] != 0, pair_slots[c]);
    }
  }
  if (cand != nullptr) {
    cache->store_candidates(store_keys, store_flags, direct, need_direct, cand_cell_km);
  }
  const bool grow = options.grow_triples_from_pairs;
  BitMatrix adjacency(grow ? n : 0);
  std::vector<std::uint64_t> feasible_pairs;
  for (std::size_t c = 0; c < pair_count; ++c) {
    if (!pair_ok[c]) continue;
    const auto i = static_cast<std::size_t>(pair_keys[c] >> 32);
    const auto j = static_cast<std::size_t>(pair_keys[c] & 0xffffffffu);
    if (derived_valid) {
      // The implied bound the pruning rests on, checked on realized pairs.
      const double bound =
          options.detour_threshold_km / 2.0 + std::max(direct[i], direct[j]) + kGridPadKm;
      O2O_ENSURES(geo::euclidean_distance(pickups[i], pickups[j]) <= bound);
    }
    if (grow) {
      adjacency.set_symmetric(i, j);
      feasible_pairs.push_back(pair_keys[c]);
    }
    groups.push_back(pair_slots[c]);
  }

  if (options.max_group_size < 3) return groups;

  // ---- Triple candidates ----
  std::vector<std::array<std::uint32_t, 3>> triples;
  if (grow) {
    // Serial order: feasible pairs lexicographically, completions k > j
    // with both (i, k) and (j, k) feasible — one word-AND of the two
    // adjacency rows per 64 candidates. The dense scan's radius checks
    // on (i, k)/(j, k) are implied: those pairs passed them when their
    // own pair candidacy was evaluated.
    for (const std::uint64_t key : feasible_pairs) {
      const auto i = static_cast<std::uint32_t>(key >> 32);
      const auto j = static_cast<std::uint32_t>(key & 0xffffffffu);
      adjacency.for_each_common_above(i, j, j, [&](std::size_t k) {
        triples.push_back({i, j, static_cast<std::uint32_t>(k)});
      });
    }
  } else {
    // Exhaustive (test) mode: the dense scan's candidate set verbatim.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        for (std::size_t k = j + 1; k < n; ++k) {
          if (!pickups_close(i, k) || !pickups_close(j, k)) continue;
          triples.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j),
                             static_cast<std::uint32_t>(k)});
        }
      }
    }
  }
  const std::size_t triple_count = triples.size();
  obs::add(obs::Counter::kTripleCandidates, triple_count);
  std::vector<ShareGroup> triple_slots(triple_count);
  std::vector<std::uint8_t> triple_ok(triple_count, 0);
  // Triples reuse the cache but not the SIMD certificate: after the pair
  // prune the candidate volume is small, and the 6-stop order space has
  // no cheap conservative closed form worth vectorizing.
  std::vector<std::uint32_t> triple_eval;
  if (cache != nullptr) {
    triple_eval.reserve(triple_count);
    for (std::size_t c = 0; c < triple_count; ++c) {
      const auto& t = triples[c];
      const std::size_t members[3] = {t[0], t[1], t[2]};
      switch (cache->try_get(members, 3, triple_slots[c])) {
        case GroupCache::Verdict::kFeasible:
          triple_ok[c] = 1;
          break;
        case GroupCache::Verdict::kInfeasible:
          break;
        case GroupCache::Verdict::kMiss:
          triple_eval.push_back(static_cast<std::uint32_t>(c));
          break;
      }
    }
  } else {
    triple_eval.resize(triple_count);
    for (std::size_t c = 0; c < triple_count; ++c) {
      triple_eval[c] = static_cast<std::uint32_t>(c);
    }
  }
  bool triple_fanned = false;
  {
    obs::StageTimer eval_stage(obs::Stage::kExactEval);
    triple_fanned = parallel_eval(triple_eval.size(), oracle, [&](std::size_t e) {
      thread_local EvalScratch scratch;
      const auto& t = triples[triple_eval[e]];
      const std::size_t members[3] = {t[0], t[1], t[2]};
      bool feasible = false;
      evaluate_group_into(requests, members, 3, oracle, options, taxi_seats, feasible,
                          triple_slots[triple_eval[e]], scratch);
      triple_ok[triple_eval[e]] = feasible ? 1 : 0;
    });
  }
  if (triple_fanned) obs::add(obs::Counter::kExactParallelBatches);
  if (cache != nullptr) {
    for (const std::uint32_t c : triple_eval) {
      const auto& t = triples[c];
      const std::size_t members[3] = {t[0], t[1], t[2]};
      cache->store(members, 3, triple_ok[c] != 0, triple_slots[c]);
    }
  }
  for (std::size_t c = 0; c < triple_count; ++c) {
    if (triple_ok[c]) groups.push_back(triple_slots[c]);
  }
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
  GroupCache::Stats before;
  if (cache != nullptr) {
    cache->begin_frame(requests, options, taxi_seats, &oracle);
    before = cache->stats();
  }
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
