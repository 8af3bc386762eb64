#include "core/preferences.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "index/spatial_grid.h"
#include "obs/obs.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace o2o::core {

namespace {

/// Sorts candidate indices by (score, index) and truncates at the dummy
/// (kUnacceptable) and at the optional list cap.
std::vector<int> build_list(const std::vector<double>& scores, std::size_t list_cap) {
  std::vector<int> order;
  order.reserve(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] != kUnacceptable) order.push_back(static_cast<int>(i));
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double sa = scores[static_cast<std::size_t>(a)];
    const double sb = scores[static_cast<std::size_t>(b)];
    if (sa != sb) return sa < sb;
    return a < b;
  });
  if (list_cap > 0 && order.size() > list_cap) order.resize(list_cap);
  return order;
}

std::vector<std::size_t> build_ranks(const std::vector<int>& list, std::size_t n) {
  std::vector<std::size_t> ranks(n, PreferenceProfile::kNoRank);
  for (std::size_t pos = 0; pos < list.size(); ++pos) {
    ranks[static_cast<std::size_t>(list[pos])] = pos;
  }
  return ranks;
}

}  // namespace

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
  for (std::size_t r = 0; r < requests; ++r) {
    O2O_EXPECTS(passenger_scores[r].size() == taxi_count);
    O2O_EXPECTS(taxi_scores[r].size() == taxi_count);
  }

  PreferenceProfile profile;
  profile.request_count_ = requests;
  profile.taxi_count_ = taxi_count;
  profile.passenger_scores_ = std::move(passenger_scores);
  profile.taxi_scores_ = std::move(taxi_scores);

  profile.request_prefs_.resize(requests);
  profile.request_ranks_.resize(requests);
  for (std::size_t r = 0; r < requests; ++r) {
    profile.request_prefs_[r] = build_list(profile.passenger_scores_[r], list_cap);
    profile.request_ranks_[r] = build_ranks(profile.request_prefs_[r], taxi_count);
  }

  profile.taxi_prefs_.resize(taxi_count);
  profile.taxi_ranks_.resize(taxi_count);
  std::vector<double> column(requests);
  for (std::size_t t = 0; t < taxi_count; ++t) {
    for (std::size_t r = 0; r < requests; ++r) column[r] = profile.taxi_scores_[r][t];
    profile.taxi_prefs_[t] = build_list(column, list_cap);
    profile.taxi_ranks_[t] = build_ranks(profile.taxi_prefs_[t], requests);
  }
  return profile;
}

PreferenceProfile PreferenceProfile::from_candidates(
    std::vector<std::vector<Candidate>> candidates, std::size_t taxi_count,
    std::size_t list_cap) {
  const std::size_t requests = candidates.size();
  O2O_EXPECTS(requests <= (std::uint64_t{1} << 32));

  PreferenceProfile profile;
  profile.sparse_ = true;
  profile.request_count_ = requests;
  profile.taxi_count_ = taxi_count;
  profile.request_prefs_.resize(requests);
  profile.taxi_prefs_.resize(taxi_count);

  std::size_t total_pairs = 0;
  for (const auto& row : candidates) total_pairs += row.size();
  profile.pairs_.reserve(total_pairs);

  // Request lists + the pair table. Sorting by (passenger score, taxi)
  // floats acceptable entries to the front, so the cap keeps the best.
  for (std::size_t r = 0; r < requests; ++r) {
    auto& row = candidates[r];
    std::sort(row.begin(), row.end(), [](const Candidate& a, const Candidate& b) {
      if (a.passenger_score != b.passenger_score) return a.passenger_score < b.passenger_score;
      return a.taxi < b.taxi;
    });
    auto& list = profile.request_prefs_[r];
    for (const Candidate& candidate : row) {
      O2O_EXPECTS(candidate.taxi >= 0 &&
                  static_cast<std::size_t>(candidate.taxi) < taxi_count);
      const auto [it, inserted] = profile.pairs_.emplace(
          pair_key(r, static_cast<std::size_t>(candidate.taxi)),
          PairEntry{candidate.passenger_score, candidate.taxi_score, kNoRank, kNoRank});
      O2O_EXPECTS(inserted);  // each (request, taxi) pair scored at most once
      if (candidate.passenger_score != kUnacceptable &&
          (list_cap == 0 || list.size() < list_cap)) {
        it->second.request_rank = list.size();
        list.push_back(candidate.taxi);
      }
    }
  }

  // Taxi lists: bucket acceptable candidates per taxi, then order each
  // bucket by (taxi score, request index) — the same strict order the
  // dense path produces.
  std::vector<std::vector<std::pair<double, int>>> buckets(taxi_count);
  for (std::size_t r = 0; r < requests; ++r) {
    for (const Candidate& candidate : candidates[r]) {
      if (candidate.taxi_score != kUnacceptable) {
        buckets[static_cast<std::size_t>(candidate.taxi)].emplace_back(candidate.taxi_score,
                                                                       static_cast<int>(r));
      }
    }
  }
  for (std::size_t t = 0; t < taxi_count; ++t) {
    auto& bucket = buckets[t];
    std::sort(bucket.begin(), bucket.end());
    if (list_cap > 0 && bucket.size() > list_cap) bucket.resize(list_cap);
    auto& list = profile.taxi_prefs_[t];
    list.reserve(bucket.size());
    for (std::size_t pos = 0; pos < bucket.size(); ++pos) {
      const int r = bucket[pos].second;
      list.push_back(r);
      profile.pairs_[pair_key(static_cast<std::size_t>(r), t)].taxi_rank = pos;
    }
  }
  return profile;
}

const PreferenceProfile::PairEntry* PreferenceProfile::find_pair(std::size_t r,
                                                                 std::size_t t) const {
  const auto it = pairs_.find(pair_key(r, t));
  return it == pairs_.end() ? nullptr : &it->second;
}

const std::vector<int>& PreferenceProfile::request_list(std::size_t r) const {
  O2O_EXPECTS(r < request_prefs_.size());
  return request_prefs_[r];
}

const std::vector<int>& PreferenceProfile::taxi_list(std::size_t t) const {
  O2O_EXPECTS(t < taxi_prefs_.size());
  return taxi_prefs_[t];
}

std::size_t PreferenceProfile::request_rank(std::size_t r, std::size_t t) const {
  O2O_EXPECTS(r < request_count_);
  O2O_EXPECTS(t < taxi_count_);
  if (!sparse_) return request_ranks_[r][t];
  const PairEntry* entry = find_pair(r, t);
  return entry == nullptr ? kNoRank : entry->request_rank;
}

std::size_t PreferenceProfile::taxi_rank(std::size_t t, std::size_t r) const {
  O2O_EXPECTS(t < taxi_count_);
  O2O_EXPECTS(r < request_count_);
  if (!sparse_) return taxi_ranks_[t][r];
  const PairEntry* entry = find_pair(r, t);
  return entry == nullptr ? kNoRank : entry->taxi_rank;
}

bool PreferenceProfile::acceptable(std::size_t r, std::size_t t) const {
  if (sparse_) {
    O2O_EXPECTS(r < request_count_);
    O2O_EXPECTS(t < taxi_count_);
    const PairEntry* entry = find_pair(r, t);
    return entry != nullptr && entry->request_rank != kNoRank && entry->taxi_rank != kNoRank;
  }
  return request_rank(r, t) != kNoRank && taxi_rank(t, r) != kNoRank;
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
  if (!sparse_) return passenger_scores_[r][t];
  const PairEntry* entry = find_pair(r, t);
  return entry == nullptr ? kUnacceptable : entry->passenger_score;
}

double PreferenceProfile::taxi_score(std::size_t t, std::size_t r) const {
  O2O_EXPECTS(t < taxi_count_);
  O2O_EXPECTS(r < request_count_);
  if (!sparse_) return taxi_scores_[r][t];
  const PairEntry* entry = find_pair(r, t);
  return entry == nullptr ? kUnacceptable : entry->taxi_score;
}

PreferenceProfile build_nonsharing_profile(std::span<const trace::Taxi> taxis,
                                           std::span<const trace::Request> requests,
                                           const geo::DistanceOracle& oracle,
                                           const PreferenceParams& params,
                                           const index::SpatialGrid* taxi_grid) {
  const std::size_t n_requests = requests.size();
  const std::size_t n_taxis = taxis.size();
  obs::StageTimer stage(obs::Stage::kProfileBuild);

  const bool prune = params.spatial_prune &&
                     std::isfinite(params.passenger_threshold_km) && n_taxis > 0;
  if (!prune) {
    std::vector<geo::Point> taxi_locations(n_taxis);
    for (std::size_t t = 0; t < n_taxis; ++t) taxi_locations[t] = taxis[t].location;
    std::vector<std::vector<double>> passenger_scores(n_requests,
                                                      std::vector<double>(n_taxis));
    std::vector<std::vector<double>> taxi_scores(n_requests, std::vector<double>(n_taxis));
    for_each_row(n_requests, oracle, [&](std::size_t r) {
      const trace::Request& request = requests[r];
      const double trip = oracle.distance(request.pickup, request.dropoff);
      // One bulk call per row: D(taxi -> pickup) for every taxi. The
      // network oracle serves the whole row from a single reverse tree
      // rooted at the pickup instead of one forward tree per taxi.
      const std::vector<double> pickups = oracle.distances_to(taxi_locations, request.pickup);
      for (std::size_t t = 0; t < n_taxis; ++t) {
        const trace::Taxi& taxi = taxis[t];
        if (taxi.seats < request.seats) {
          // Not enough seats: the paper places the pair past the dummy on
          // both sides (the request "will put t_i to the end of its
          // preference order"), i.e. it is never matched.
          passenger_scores[r][t] = kUnacceptable;
          taxi_scores[r][t] = kUnacceptable;
          continue;
        }
        const double pickup = pickups[t];
        const double driver = pickup - params.alpha * trip;
        passenger_scores[r][t] =
            pickup <= params.passenger_threshold_km ? pickup : kUnacceptable;
        taxi_scores[r][t] = driver <= params.taxi_threshold_score ? driver : kUnacceptable;
      }
    });
    obs::add(obs::Counter::kPreferencePairs, n_requests * n_taxis);
    obs::gauge_max(obs::Gauge::kProfilePairsPeak, n_requests * n_taxis);
    return PreferenceProfile::from_scores(std::move(passenger_scores),
                                          std::move(taxi_scores), n_taxis, params.list_cap);
  }

  // Sparse path: only taxis inside the passenger-threshold radius can be
  // acceptable to the passenger (every oracle's distance dominates the
  // straight-line distance the grid filters on), and pairs acceptable
  // only to the taxi can never match, so candidate rows from the radius
  // query reproduce the dense matchings exactly.
  std::optional<index::SpatialGrid> local_grid;
  if (taxi_grid == nullptr) {
    const double cell_km = std::clamp(params.passenger_threshold_km / 2.0, 0.25, 8.0);
    local_grid.emplace(taxis, cell_km);
    taxi_grid = &*local_grid;
  }
  O2O_EXPECTS(taxi_grid->size() == n_taxis);

  std::vector<std::vector<PreferenceProfile::Candidate>> rows(n_requests);
  for_each_row(n_requests, oracle, [&](std::size_t r) {
    const trace::Request& request = requests[r];
    const double trip = oracle.distance(request.pickup, request.dropoff);
    std::vector<std::int32_t> nearby =
        taxi_grid->within_radius(request.pickup, params.passenger_threshold_km);
    std::sort(nearby.begin(), nearby.end());
    obs::add(obs::Counter::kGridCandidates, nearby.size());
    obs::add(obs::Counter::kGridCandidatesPruned, n_taxis - nearby.size());
    // Seat-feasible candidates first, then one bulk distance call for the
    // whole row (one reverse tree on the network oracle).
    std::vector<std::int32_t> feasible;
    std::vector<geo::Point> locations;
    feasible.reserve(nearby.size());
    locations.reserve(nearby.size());
    for (const std::int32_t id : nearby) {
      if (taxis[static_cast<std::size_t>(id)].seats < request.seats) continue;
      feasible.push_back(id);
      locations.push_back(taxis[static_cast<std::size_t>(id)].location);
    }
    const std::vector<double> pickups = oracle.distances_to(locations, request.pickup);
    auto& row = rows[r];
    row.reserve(feasible.size());
    for (std::size_t k = 0; k < feasible.size(); ++k) {
      const auto t = static_cast<std::size_t>(feasible[k]);
      const double pickup = pickups[k];
      const double driver = pickup - params.alpha * trip;
      const double passenger_score =
          pickup <= params.passenger_threshold_km ? pickup : kUnacceptable;
      const double taxi_score =
          driver <= params.taxi_threshold_score ? driver : kUnacceptable;
      if (passenger_score == kUnacceptable && taxi_score == kUnacceptable) continue;
      row.push_back({static_cast<int>(t), passenger_score, taxi_score});
    }
    obs::add(obs::Counter::kPreferencePairs, row.size());
  });
  if (obs::tracing_active()) {
    std::size_t pairs = 0;
    for (const auto& row : rows) pairs += row.size();
    obs::gauge_max(obs::Gauge::kProfilePairsPeak, pairs);
  }
  return PreferenceProfile::from_candidates(std::move(rows), n_taxis, params.list_cap);
}

}  // namespace o2o::core
