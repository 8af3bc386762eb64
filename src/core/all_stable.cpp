#include "core/all_stable.h"

#include <set>

#include "obs/obs.h"
#include "util/contracts.h"

namespace o2o::core {

std::optional<Matching> break_dispatch(const PreferenceProfile& profile,
                                       const Matching& schedule, std::size_t request) {
  O2O_EXPECTS(request < profile.request_count());
  O2O_EXPECTS(is_valid(profile, schedule));

  const int t_star_signed = schedule.request_to_taxi[request];
  if (t_star_signed == kDummy) return std::nullopt;  // Rule 3
  const auto t_star = static_cast<std::size_t>(t_star_signed);

  std::vector<int> request_match = schedule.request_to_taxi;
  std::vector<int> taxi_match = schedule.taxi_to_request;
  request_match[request] = kDummy;
  taxi_match[t_star] = kDummy;

  // The cascade is a single chain: exactly one request is free at a time.
  std::size_t current = request;
  std::size_t next = profile.request_rank(request, t_star) + 1;

  while (true) {
    const std::span<const int> list = profile.request_list(current);
    bool chained = false;
    for (; next < list.size(); ++next) {
      const auto taxi = static_cast<std::size_t>(list[next]);
      const int incumbent = taxi_match[taxi];
      bool accepts;
      if (taxi == t_star) {
        // Rule 1: the freed taxi holds out for a request it strictly
        // prefers over the broken one; anything else would recreate the
        // blocking pair (r_j, t*).
        accepts = profile.taxi_prefers(taxi, static_cast<int>(current),
                                       static_cast<int>(request));
      } else {
        accepts = profile.taxi_prefers(taxi, static_cast<int>(current), incumbent);
      }
      if (!accepts) continue;

      request_match[current] = static_cast<int>(taxi);
      taxi_match[taxi] = static_cast<int>(current);
      if (taxi == t_star) {
        // Rule 1 satisfied: the chain closes on the freed taxi.
        Matching result = make_matching(std::move(request_match), profile.taxi_count());
        O2O_ENSURES(is_stable(profile, result));
        return result;
      }
      if (incumbent == kDummy) {
        // A previously undispatched taxi absorbed the chain, leaving t*
        // free: (r_j, t*) would block, so the break is unsuccessful
        // (Theorem 3, termination case (i)).
        return std::nullopt;
      }
      if (static_cast<std::size_t>(incumbent) < request) return std::nullopt;  // Rule 2
      current = static_cast<std::size_t>(incumbent);
      request_match[current] = kDummy;
      next = profile.request_rank(current, taxi) + 1;
      chained = true;
      break;
    }
    if (!chained) {
      // `current` exhausted its list (re-matched to the dummy): t* stays
      // undispatched, so no stable schedule results (case (i)).
      return std::nullopt;
    }
  }
}

namespace {

struct Enumerator {
  const PreferenceProfile& profile;
  const AllStableOptions& options;
  AllStableResult result;
  std::set<std::vector<int>> seen;
  std::uint64_t break_attempts = 0;

  bool full() const {
    return options.max_matchings > 0 && result.matchings.size() >= options.max_matchings;
  }

  void recurse(const Matching& schedule) {
    for (std::size_t j = 0; j < profile.request_count(); ++j) {
      if (full()) {
        result.truncated = true;
        return;
      }
      ++break_attempts;
      auto next = break_dispatch(profile, schedule, j);
      if (!next.has_value()) continue;
      ++result.break_successes;
      // Theorem 4 says every schedule is produced exactly once; the seen
      // set makes the output duplicate-free regardless, and tests compare
      // break_successes against the output size to validate the theorem.
      if (seen.insert(next->request_to_taxi).second) {
        // Recurse on the local copy: result.matchings may reallocate
        // during the recursion, so a reference into it would dangle.
        result.matchings.push_back(*next);
        recurse(*next);
      }
    }
  }
};

}  // namespace

AllStableResult enumerate_all_stable(const PreferenceProfile& profile,
                                     const AllStableOptions& options) {
  Enumerator enumerator{profile, options, {}, {}, 0};
  const Matching passenger_optimal = gale_shapley_requests(profile);
  enumerator.seen.insert(passenger_optimal.request_to_taxi);
  enumerator.result.matchings.push_back(passenger_optimal);
  {
    // The timer starts after Algorithm 1 so kBreakDispatch and
    // kStableMatching stay disjoint stages.
    obs::StageTimer timer(obs::Stage::kBreakDispatch);
    // recurse takes the local copy: result.matchings may reallocate while
    // the recursion appends, so references into it would dangle.
    if (!enumerator.full()) enumerator.recurse(passenger_optimal);
  }
  obs::add(obs::Counter::kBreakAttempts, enumerator.break_attempts);
  obs::add(obs::Counter::kBreakSuccesses, enumerator.result.break_successes);
  return std::move(enumerator.result);
}

std::vector<Matching> brute_force_all_stable(const PreferenceProfile& profile) {
  O2O_EXPECTS(profile.request_count() <= 7);
  std::vector<Matching> stable;
  std::vector<int> assignment(profile.request_count(), kDummy);
  std::vector<bool> taxi_used(profile.taxi_count(), false);

  const auto recurse = [&](auto&& self, std::size_t r) -> void {
    if (r == profile.request_count()) {
      Matching candidate = make_matching(assignment, profile.taxi_count());
      if (is_stable(profile, candidate)) stable.push_back(std::move(candidate));
      return;
    }
    assignment[r] = kDummy;
    self(self, r + 1);
    for (std::size_t t = 0; t < profile.taxi_count(); ++t) {
      if (taxi_used[t] || !profile.acceptable(r, t)) continue;
      taxi_used[t] = true;
      assignment[r] = static_cast<int>(t);
      self(self, r + 1);
      assignment[r] = kDummy;
      taxi_used[t] = false;
    }
  };
  recurse(recurse, 0);
  return stable;
}

}  // namespace o2o::core
