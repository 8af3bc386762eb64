#include "core/preferences.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "core/candidate_arenas.h"
#include "index/spatial_grid.h"
#include "obs/obs.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace o2o::core {

void for_each_row(std::size_t count, const geo::DistanceOracle& oracle,
                  const std::function<void(std::size_t)>& body) {
  // Below this, fan-out overhead dominates the oracle calls saved.
  constexpr std::size_t kSerialCutoff = 16;
  ThreadPool& pool = ThreadPool::shared();
  if (count < kSerialCutoff || pool.worker_count() == 0 || !oracle.capabilities().concurrent_queries) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  pool.parallel_for(0, count, /*grain=*/8, body);
}

PreferenceProfile PreferenceProfile::from_scores(
    std::vector<std::vector<double>> passenger_scores,
    std::vector<std::vector<double>> taxi_scores, std::size_t taxi_count,
    std::size_t list_cap) {
  const std::size_t requests = passenger_scores.size();
  O2O_EXPECTS(taxi_scores.size() == requests);
  std::vector<std::vector<Candidate>> rows(requests);
  for (std::size_t r = 0; r < requests; ++r) {
    O2O_EXPECTS(passenger_scores[r].size() == taxi_count);
    O2O_EXPECTS(taxi_scores[r].size() == taxi_count);
    for (std::size_t t = 0; t < taxi_count; ++t) {
      const double passenger = passenger_scores[r][t];
      const double taxi = taxi_scores[r][t];
      if (passenger == kUnacceptable && taxi == kUnacceptable) continue;
      rows[r].push_back({static_cast<int>(t), passenger, taxi});
    }
  }
  return from_candidates(std::move(rows), taxi_count, list_cap);
}

PreferenceProfile PreferenceProfile::from_candidates(
    std::vector<std::vector<Candidate>> candidates, std::size_t taxi_count,
    std::size_t list_cap) {
  std::vector<std::span<Candidate>> rows(candidates.begin(), candidates.end());
  return from_candidate_rows(rows, taxi_count, list_cap);
}

PreferenceProfile PreferenceProfile::from_candidate_rows(
    std::span<const std::span<Candidate>> rows, std::size_t taxi_count, std::size_t list_cap) {
  const std::size_t requests = rows.size();
  // Keeps every pair_key's low word below 2^31, clear of kEmptyKey.
  O2O_EXPECTS(requests < (std::uint64_t{1} << 32));
  O2O_EXPECTS(taxi_count <= static_cast<std::size_t>(std::numeric_limits<int>::max()));

  PreferenceProfile profile;
  profile.request_count_ = requests;
  profile.taxi_count_ = taxi_count;

  std::size_t total_pairs = 0;
  for (const auto& row : rows) total_pairs += row.size();
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(2 * total_pairs, 2));
  profile.pairs_.assign(capacity, PairSlot{kEmptyKey, PairEntry{}});
  profile.pair_mask_ = capacity - 1;

  // Request lists + the pair table. Sorting by (passenger score, taxi)
  // floats acceptable entries to the front, so the cap keeps the best.
  // The taxi side's per-taxi counts ride along for the placement below.
  auto& request_lists = profile.request_lists_;
  auto& taxi_offsets = profile.taxi_offsets_;
  request_lists.reserve(total_pairs);
  profile.request_offsets_.reserve(requests + 1);
  profile.request_offsets_.push_back(0);
  taxi_offsets.assign(taxi_count + 1, 0);
  for (std::size_t r = 0; r < requests; ++r) {
    const std::span<Candidate> row = rows[r];
    std::sort(row.begin(), row.end(), [](const Candidate& a, const Candidate& b) {
      if (a.passenger_score != b.passenger_score) return a.passenger_score < b.passenger_score;
      return a.taxi < b.taxi;
    });
    const std::size_t list_start = request_lists.size();
    for (const Candidate& candidate : row) {
      O2O_EXPECTS(candidate.taxi >= 0 &&
                  static_cast<std::size_t>(candidate.taxi) < taxi_count);
      const std::uint64_t key = pair_key(r, static_cast<std::size_t>(candidate.taxi));
      PairSlot& slot = profile.slot_for(key);
      O2O_EXPECTS(slot.key == kEmptyKey);  // each (request, taxi) pair scored at most once
      slot.key = key;
      slot.entry.passenger_score = candidate.passenger_score;
      slot.entry.taxi_score = candidate.taxi_score;
      const std::size_t listed = request_lists.size() - list_start;
      if (candidate.passenger_score != kUnacceptable && (list_cap == 0 || listed < list_cap)) {
        slot.entry.request_rank = static_cast<std::uint32_t>(listed);
        request_lists.push_back(candidate.taxi);
      }
      if (candidate.taxi_score != kUnacceptable) {
        ++taxi_offsets[static_cast<std::size_t>(candidate.taxi) + 1];
      }
    }
    profile.request_offsets_.push_back(request_lists.size());
  }

  // Taxi lists: a counting pass places every acceptable candidate in its
  // taxi's segment, each segment is ordered by (taxi score, request
  // index), and the cap keeps a prefix of it. Placing advances each
  // taxi's start offset to its segment's end, so segment t ends up at
  // [end of t - 1, taxi_offsets[t]).
  for (std::size_t t = 0; t < taxi_count; ++t) taxi_offsets[t + 1] += taxi_offsets[t];
  std::vector<std::pair<double, int>> placed(taxi_offsets[taxi_count]);
  for (std::size_t r = 0; r < requests; ++r) {
    for (const Candidate& candidate : rows[r]) {
      if (candidate.taxi_score == kUnacceptable) continue;
      placed[taxi_offsets[static_cast<std::size_t>(candidate.taxi)]++] = {
          candidate.taxi_score, static_cast<int>(r)};
    }
  }
  auto& taxi_lists = profile.taxi_lists_;
  taxi_lists.reserve(placed.size());
  std::size_t segment_start = 0;
  for (std::size_t t = 0; t < taxi_count; ++t) {
    const auto first = placed.begin() + static_cast<std::ptrdiff_t>(segment_start);
    auto last = placed.begin() + static_cast<std::ptrdiff_t>(taxi_offsets[t]);
    segment_start = taxi_offsets[t];
    std::sort(first, last);
    if (list_cap > 0 && static_cast<std::size_t>(last - first) > list_cap) {
      last = first + static_cast<std::ptrdiff_t>(list_cap);
    }
    taxi_offsets[t] = taxi_lists.size();
    for (auto it = first; it != last; ++it) {
      const int r = it->second;
      profile.slot_for(pair_key(static_cast<std::size_t>(r), t)).entry.taxi_rank =
          static_cast<std::uint32_t>(it - first);
      taxi_lists.push_back(r);
    }
  }
  taxi_offsets[taxi_count] = taxi_lists.size();
  return profile;
}

PreferenceProfile::PairSlot& PreferenceProfile::slot_for(std::uint64_t key) {
  for (std::uint64_t i = mix64(key) & pair_mask_;; i = (i + 1) & pair_mask_) {
    PairSlot& slot = pairs_[i];
    if (slot.key == key || slot.key == kEmptyKey) return slot;
  }
}

const PreferenceProfile::PairEntry* PreferenceProfile::find_pair(std::size_t r,
                                                                 std::size_t t) const {
  const std::uint64_t key = pair_key(r, t);
  for (std::uint64_t i = mix64(key) & pair_mask_;; i = (i + 1) & pair_mask_) {
    const PairSlot& slot = pairs_[i];
    if (slot.key == key) return &slot.entry;
    if (slot.key == kEmptyKey) return nullptr;
  }
}

std::size_t PreferenceProfile::widen(std::uint32_t rank) noexcept {
  return rank == kNoRank32 ? kNoRank : rank;
}

std::span<const int> PreferenceProfile::request_list(std::size_t r) const {
  O2O_EXPECTS(r < request_count_);
  return std::span<const int>(request_lists_)
      .subspan(request_offsets_[r], request_offsets_[r + 1] - request_offsets_[r]);
}

std::span<const int> PreferenceProfile::taxi_list(std::size_t t) const {
  O2O_EXPECTS(t < taxi_count_);
  return std::span<const int>(taxi_lists_)
      .subspan(taxi_offsets_[t], taxi_offsets_[t + 1] - taxi_offsets_[t]);
}

std::size_t PreferenceProfile::request_rank(std::size_t r, std::size_t t) const {
  O2O_EXPECTS(r < request_count_);
  O2O_EXPECTS(t < taxi_count_);
  const PairEntry* entry = find_pair(r, t);
  return entry == nullptr ? kNoRank : widen(entry->request_rank);
}

std::size_t PreferenceProfile::taxi_rank(std::size_t t, std::size_t r) const {
  O2O_EXPECTS(t < taxi_count_);
  O2O_EXPECTS(r < request_count_);
  const PairEntry* entry = find_pair(r, t);
  return entry == nullptr ? kNoRank : widen(entry->taxi_rank);
}

bool PreferenceProfile::acceptable(std::size_t r, std::size_t t) const {
  O2O_EXPECTS(r < request_count_);
  O2O_EXPECTS(t < taxi_count_);
  const PairEntry* entry = find_pair(r, t);
  return entry != nullptr && entry->request_rank != kNoRank32 &&
         entry->taxi_rank != kNoRank32;
}

bool PreferenceProfile::request_prefers(std::size_t r, int a, int b) const {
  const std::size_t rank_a =
      a == kDummy ? kNoRank : request_rank(r, static_cast<std::size_t>(a));
  const std::size_t rank_b =
      b == kDummy ? kNoRank : request_rank(r, static_cast<std::size_t>(b));
  return rank_a < rank_b;
}

bool PreferenceProfile::taxi_prefers(std::size_t t, int a, int b) const {
  const std::size_t rank_a = a == kDummy ? kNoRank : taxi_rank(t, static_cast<std::size_t>(a));
  const std::size_t rank_b = b == kDummy ? kNoRank : taxi_rank(t, static_cast<std::size_t>(b));
  return rank_a < rank_b;
}

double PreferenceProfile::passenger_score(std::size_t r, std::size_t t) const {
  O2O_EXPECTS(r < request_count_);
  O2O_EXPECTS(t < taxi_count_);
  const PairEntry* entry = find_pair(r, t);
  return entry == nullptr ? kUnacceptable : entry->passenger_score;
}

double PreferenceProfile::taxi_score(std::size_t t, std::size_t r) const {
  O2O_EXPECTS(t < taxi_count_);
  O2O_EXPECTS(r < request_count_);
  const PairEntry* entry = find_pair(r, t);
  return entry == nullptr ? kUnacceptable : entry->taxi_score;
}

const index::SpatialGrid* candidate_grid(std::span<const trace::Taxi> taxis,
                                         double passenger_threshold_km,
                                         const index::SpatialGrid* taxi_grid,
                                         std::optional<index::SpatialGrid>& local_grid) {
  if (!std::isfinite(passenger_threshold_km) || taxis.empty()) return nullptr;
  if (taxi_grid == nullptr) {
    const double cell_km = std::clamp(passenger_threshold_km / 2.0, 0.25, 8.0);
    taxi_grid = &local_grid.emplace(taxis, cell_km);
  }
  O2O_EXPECTS(taxi_grid->size() == taxis.size());
  return taxi_grid;
}

namespace {

/// Per-lane buffers of one row of the non-sharing build, reused across
/// every row the lane scores (the RowScratch idiom of core/sharing.cpp).
struct RowScratch {
  std::vector<std::int32_t> nearby;     // radius hits, then sorted
  std::vector<std::int32_t> feasible;   // seat-feasible candidates
  std::vector<geo::Point> locations;    // their positions, bulk-query shape
  std::vector<double> pickups;          // their pick-up distances

  void reserve(std::size_t taxi_count) {
    nearby.reserve(taxi_count);
    feasible.reserve(taxi_count);
    locations.reserve(taxi_count);
    pickups.reserve(taxi_count);
  }
};

using CandidateArenas = detail::CandidateArenas<RowScratch>;

}  // namespace

PreferenceProfile build_nonsharing_profile(std::span<const trace::Taxi> taxis,
                                           std::span<const trace::Request> requests,
                                           const geo::DistanceOracle& oracle,
                                           const PreferenceParams& params,
                                           const index::SpatialGrid* taxi_grid) {
  const std::size_t n_requests = requests.size();
  const std::size_t n_taxis = taxis.size();
  obs::StageTimer stage(obs::Stage::kProfileBuild);

  // Only taxis inside the passenger-threshold radius can be acceptable to
  // the passenger (every oracle's distance dominates the straight-line
  // distance the grid filters on), and pairs acceptable only to the taxi
  // can never match, so candidate rows from the radius query lose no
  // matching.
  std::optional<index::SpatialGrid> local_grid;
  const index::SpatialGrid* grid =
      candidate_grid(taxis, params.passenger_threshold_km, taxi_grid, local_grid);

  // The calling thread's arenas, bound to a local reference that the row
  // body captures: the body runs on pool workers too, where the
  // thread_local's own name would resolve to each worker's instance.
  thread_local CandidateArenas this_thread_arenas;
  CandidateArenas& arenas = this_thread_arenas;
  arenas.begin(ThreadPool::shared().lane_count(), n_requests, n_taxis);
  for_each_row(n_requests, oracle, [&](std::size_t r) {
    const std::size_t lane = ThreadPool::current_lane();
    RowScratch& scratch = arenas.lanes[lane].scratch;
    const trace::Request& request = requests[r];
    const double trip = oracle.distance(request.pickup, request.dropoff);
    std::vector<std::int32_t>& nearby = scratch.nearby;
    nearby.clear();
    if (grid != nullptr) {
      grid->within_radius_into(request.pickup, params.passenger_threshold_km, nearby);
      std::sort(nearby.begin(), nearby.end());
      obs::add(obs::Counter::kGridCandidates, nearby.size());
      obs::add(obs::Counter::kGridCandidatesPruned, n_taxis - nearby.size());
    } else {
      nearby.resize(n_taxis);
      std::iota(nearby.begin(), nearby.end(), 0);
    }
    // Seat-feasible candidates first, then one bulk distance call for the
    // whole row (one reverse tree on the network oracle). A taxi with too
    // few seats is past the dummy on both sides (the request "will put
    // t_i to the end of its preference order"), so its pair is omitted.
    std::vector<std::int32_t>& feasible = scratch.feasible;
    std::vector<geo::Point>& locations = scratch.locations;
    feasible.clear();
    locations.clear();
    for (const std::int32_t id : nearby) {
      if (taxis[static_cast<std::size_t>(id)].seats < request.seats) continue;
      feasible.push_back(id);
      locations.push_back(taxis[static_cast<std::size_t>(id)].location);
    }
    std::vector<double>& pickups = scratch.pickups;
    pickups.resize(feasible.size());
    oracle.distances_to_into(locations, request.pickup, pickups.data());
    std::vector<PreferenceProfile::Candidate>& row = arenas.arena(lane, feasible.size());
    const std::size_t offset = row.size();
    for (std::size_t k = 0; k < feasible.size(); ++k) {
      const double pickup = pickups[k];
      const double driver = pickup - params.alpha * trip;
      const double passenger_score =
          pickup <= params.passenger_threshold_km ? pickup : kUnacceptable;
      const double taxi_score =
          driver <= params.taxi_threshold_score ? driver : kUnacceptable;
      if (passenger_score == kUnacceptable && taxi_score == kUnacceptable) continue;
      row.push_back({static_cast<int>(feasible[k]), passenger_score, taxi_score});
    }
    arenas.refs[r] = {lane, offset, row.size() - offset};
    obs::add(obs::Counter::kPreferencePairs, row.size() - offset);
  });
  const std::span<const std::span<PreferenceProfile::Candidate>> rows = arenas.resolve();
  obs::gauge_max(obs::Gauge::kProfilePairsPeak, arenas.pairs);
  return PreferenceProfile::from_candidate_rows(rows, n_taxis, params.list_cap);
}

}  // namespace o2o::core
