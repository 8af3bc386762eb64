#include "core/stable_matching.h"

#include <algorithm>
#include <numeric>

#include "obs/obs.h"
#include "util/contracts.h"

namespace o2o::core {

std::size_t Matching::matched_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(request_to_taxi.begin(), request_to_taxi.end(),
                    [](int t) { return t != kDummy; }));
}

Matching make_matching(std::vector<int> request_to_taxi, std::size_t taxi_count) {
  Matching matching;
  matching.taxi_to_request.assign(taxi_count, kDummy);
  for (std::size_t r = 0; r < request_to_taxi.size(); ++r) {
    const int t = request_to_taxi[r];
    if (t == kDummy) continue;
    O2O_EXPECTS(t >= 0 && static_cast<std::size_t>(t) < taxi_count);
    O2O_EXPECTS(matching.taxi_to_request[static_cast<std::size_t>(t)] == kDummy);
    matching.taxi_to_request[static_cast<std::size_t>(t)] = static_cast<int>(r);
  }
  matching.request_to_taxi = std::move(request_to_taxi);
  return matching;
}

bool is_valid(const PreferenceProfile& profile, const Matching& matching) {
  if (matching.request_to_taxi.size() != profile.request_count()) return false;
  if (matching.taxi_to_request.size() != profile.taxi_count()) return false;
  std::vector<bool> taxi_used(profile.taxi_count(), false);
  for (std::size_t r = 0; r < matching.request_to_taxi.size(); ++r) {
    const int t = matching.request_to_taxi[r];
    if (t == kDummy) continue;
    if (t < 0 || static_cast<std::size_t>(t) >= profile.taxi_count()) return false;
    if (taxi_used[static_cast<std::size_t>(t)]) return false;
    taxi_used[static_cast<std::size_t>(t)] = true;
    if (matching.taxi_to_request[static_cast<std::size_t>(t)] != static_cast<int>(r)) {
      return false;
    }
    if (!profile.acceptable(r, static_cast<std::size_t>(t))) return false;
  }
  for (std::size_t t = 0; t < matching.taxi_to_request.size(); ++t) {
    const int r = matching.taxi_to_request[t];
    if (r == kDummy) continue;
    if (r < 0 || static_cast<std::size_t>(r) >= profile.request_count()) return false;
    if (matching.request_to_taxi[static_cast<std::size_t>(r)] != static_cast<int>(t)) {
      return false;
    }
  }
  return true;
}

std::vector<std::pair<std::size_t, std::size_t>> blocking_pairs(
    const PreferenceProfile& profile, const Matching& matching) {
  // Every mutually acceptable (r, t) has t on r's candidate list, so
  // walking the request lists covers every possible blocking pair without
  // touching the |R|×|T| rectangle. Each row is collected then sorted by
  // taxi index, reproducing the dense scan's (r, t) output order.
  std::vector<std::pair<std::size_t, std::size_t>> blocking;
  std::vector<std::size_t> row;
  for (std::size_t r = 0; r < profile.request_count(); ++r) {
    row.clear();
    for (const int taxi : profile.request_list(r)) {
      const auto t = static_cast<std::size_t>(taxi);
      if (!profile.acceptable(r, t)) continue;
      // Both the request and the taxi would leave their current partner
      // (possibly the dummy, which any acceptable partner beats) for each
      // other: Definition 1 is violated.
      const bool request_wants = profile.request_prefers(r, taxi, matching.request_to_taxi[r]);
      const bool taxi_wants =
          profile.taxi_prefers(t, static_cast<int>(r), matching.taxi_to_request[t]);
      if (request_wants && taxi_wants) row.push_back(t);
    }
    std::sort(row.begin(), row.end());
    for (const std::size_t t : row) blocking.emplace_back(r, t);
  }
  return blocking;
}

bool is_stable(const PreferenceProfile& profile, const Matching& matching) {
  return is_valid(profile, matching) && blocking_pairs(profile, matching).empty();
}

namespace {

/// Deferred acceptance restricted to the given proposers, writing into
/// caller-owned (possibly shared, see the header contract) match arrays.
/// `proposer_list` / `receiver_prefers` abstract which side proposes so
/// both directions share one implementation.
template <typename ListFn, typename PrefersFn>
void deferred_acceptance(std::span<const int> proposers, std::span<int> proposer_match,
                         std::span<int> receiver_match, std::span<std::size_t> next_choice,
                         std::span<std::size_t> stack, ListFn&& list_of,
                         PrefersFn&& receiver_prefers) {
  // The free proposers, top at stack[free - 1]. A proposer is on it at
  // most once, so it never outgrows the proposer count.
  O2O_EXPECTS(stack.size() >= proposers.size());
  std::size_t free = 0;
  // Reverse order so proposals happen in index order (matching the
  // paper's "each passenger request proposes in turn"). Proposers already
  // holding a receiver (validated warm-start seeds) are not free.
  for (std::size_t i = proposers.size(); i-- > 0;) {
    const auto p = static_cast<std::size_t>(proposers[i]);
    if (proposer_match[p] == kDummy) stack[free++] = p;
  }

  // Counted locally and published once: the inner loop stays free of
  // even the disabled-tracing null check.
  std::uint64_t proposals = 0;
  std::uint64_t rejections = 0;

  while (free != 0) {
    const std::size_t proposer = stack[free - 1];
    const std::span<const int> list = list_of(proposer);
    if (next_choice[proposer] >= list.size()) {
      // Preference list exhausted: the next entry is the dummy; the
      // proposer stays unserved (sub-algorithm Proposal, lines 6-7).
      --free;
      continue;
    }
    const auto receiver = static_cast<std::size_t>(list[next_choice[proposer]]);
    ++next_choice[proposer];
    ++proposals;
    // Sub-algorithm Refusal: the receiver keeps the preferred proposer.
    // An unacceptable proposer is never in `list` on the proposer side,
    // but the receiver may still find the proposer unacceptable when the
    // receiver's own threshold is tighter -- receiver_prefers handles
    // that by ranking unacceptable proposers below the dummy.
    const int incumbent = receiver_match[receiver];
    if (receiver_prefers(receiver, static_cast<int>(proposer), incumbent)) {
      receiver_match[receiver] = static_cast<int>(proposer);
      proposer_match[proposer] = static_cast<int>(receiver);
      --free;
      if (incumbent != kDummy) {
        proposer_match[static_cast<std::size_t>(incumbent)] = kDummy;
        stack[free++] = static_cast<std::size_t>(incumbent);
        ++rejections;  // incumbent displaced
      }
    } else {
      ++rejections;  // proposal refused outright
    }
  }
  obs::add(obs::Counter::kProposals, proposals);
  obs::add(obs::Counter::kRejections, rejections);
}

/// Sequential warm-seed validation (header contract in detail::). The
/// certificate scan may only cite holds installed earlier, which is what
/// makes the installed state a legal DA execution prefix: replay the
/// validated proposers in validation order — each walks its list, every
/// prefix receiver rejects it (unacceptable, or holding an
/// earlier-validated proposer it prefers), and its seed receiver is free
/// and accepts. A second sweep picks up seeds whose certificates needed
/// holds installed later in the first sweep; further sweeps buy nearly
/// nothing in practice, so two is the cap.
template <typename ListFn, typename PrefersFn>
std::size_t validate_warm_seeds(std::span<const int> proposers, std::span<const int> seed,
                                std::span<int> proposer_match,
                                std::span<int> receiver_match,
                                std::span<std::size_t> next_choice, ListFn&& list_of,
                                PrefersFn&& receiver_prefers) {
  constexpr int kValidationSweeps = 2;
  std::size_t validated = 0;
  for (int sweep = 0; sweep < kValidationSweeps; ++sweep) {
    std::size_t gained = 0;
    for (const int p : proposers) {
      const auto u = static_cast<std::size_t>(p);
      if (proposer_match[u] != kDummy) continue;  // installed in an earlier sweep
      const int hinted = seed[u];
      if (hinted == kDummy) continue;
      const std::span<const int> list = list_of(u);
      std::size_t pos = list.size();
      for (std::size_t k = 0; k < list.size(); ++k) {
        if (list[k] == hinted) {
          pos = k;
          break;
        }
      }
      if (pos == list.size()) continue;  // hinted receiver not listed this frame
      const auto r = static_cast<std::size_t>(hinted);
      if (receiver_match[r] != kDummy) continue;  // claimed by an earlier seed
      if (!receiver_prefers(r, p, kDummy)) continue;  // receiver would refuse outright
      bool certified = true;
      for (std::size_t k = 0; k < pos && certified; ++k) {
        const auto v = static_cast<std::size_t>(list[k]);
        // v must certifiably reject u: u unacceptable to v, or v already
        // holds a validated proposer it strictly prefers over u.
        if (!receiver_prefers(v, p, kDummy)) continue;
        const int hold = receiver_match[v];
        if (hold == kDummy || receiver_prefers(v, p, hold)) certified = false;
      }
      if (!certified) continue;
      proposer_match[u] = hinted;
      receiver_match[r] = p;
      next_choice[u] = pos + 1;
      ++gained;
    }
    validated += gained;
    if (gained == 0) break;
  }
  return validated;
}

}  // namespace

namespace detail {

void deferred_acceptance_requests(const PreferenceProfile& profile,
                                  std::span<const int> requests,
                                  std::span<int> request_match, std::span<int> taxi_match,
                                  std::span<std::size_t> next_choice,
                                  std::span<std::size_t> stack) {
  deferred_acceptance(
      requests, request_match, taxi_match, next_choice, stack,
      [&](std::size_t r) -> std::span<const int> { return profile.request_list(r); },
      [&](std::size_t t, int candidate, int incumbent) {
        return profile.taxi_prefers(t, candidate, incumbent);
      });
}

void deferred_acceptance_taxis(const PreferenceProfile& profile,
                               std::span<const int> taxis, std::span<int> taxi_match,
                               std::span<int> request_match,
                               std::span<std::size_t> next_choice,
                               std::span<std::size_t> stack) {
  deferred_acceptance(
      taxis, taxi_match, request_match, next_choice, stack,
      [&](std::size_t t) -> std::span<const int> { return profile.taxi_list(t); },
      [&](std::size_t r, int candidate, int incumbent) {
        return profile.request_prefers(r, candidate, incumbent);
      });
}

std::size_t warm_seed_requests(const PreferenceProfile& profile,
                               std::span<const int> requests, std::span<const int> seed,
                               std::span<int> request_match, std::span<int> taxi_match,
                               std::span<std::size_t> next_choice) {
  return validate_warm_seeds(
      requests, seed, request_match, taxi_match, next_choice,
      [&](std::size_t r) -> std::span<const int> { return profile.request_list(r); },
      [&](std::size_t t, int candidate, int incumbent) {
        return profile.taxi_prefers(t, candidate, incumbent);
      });
}

std::size_t warm_seed_taxis(const PreferenceProfile& profile, std::span<const int> taxis,
                            std::span<const int> seed, std::span<int> taxi_match,
                            std::span<int> request_match,
                            std::span<std::size_t> next_choice) {
  return validate_warm_seeds(
      taxis, seed, taxi_match, request_match, next_choice,
      [&](std::size_t t) -> std::span<const int> { return profile.taxi_list(t); },
      [&](std::size_t r, int candidate, int incumbent) {
        return profile.request_prefers(r, candidate, incumbent);
      });
}

bool component_stable(const PreferenceProfile& profile, std::span<const int> requests,
                      std::span<const int> taxis, std::span<const int> request_match,
                      std::span<const int> taxi_match) {
  for (const int request : requests) {
    const auto r = static_cast<std::size_t>(request);
    const int matched = request_match[r];
    if (matched != kDummy) {
      if (matched < 0 || static_cast<std::size_t>(matched) >= profile.taxi_count()) return false;
      if (taxi_match[static_cast<std::size_t>(matched)] != request) return false;
      if (!profile.acceptable(r, static_cast<std::size_t>(matched))) return false;
    }
    for (const int taxi : profile.request_list(r)) {
      const auto t = static_cast<std::size_t>(taxi);
      if (!profile.acceptable(r, t)) continue;
      if (profile.request_prefers(r, taxi, matched) &&
          profile.taxi_prefers(t, request, taxi_match[t])) {
        return false;
      }
    }
  }
  for (const int taxi : taxis) {
    const auto t = static_cast<std::size_t>(taxi);
    const int matched = taxi_match[t];
    if (matched == kDummy) continue;
    if (matched < 0 || static_cast<std::size_t>(matched) >= profile.request_count()) return false;
    if (request_match[static_cast<std::size_t>(matched)] != taxi) return false;
  }
  return true;
}

}  // namespace detail

Matching gale_shapley_requests(const PreferenceProfile& profile) {
  obs::StageTimer timer(obs::Stage::kStableMatching);
  std::vector<int> request_to_taxi(profile.request_count(), kDummy);
  std::vector<int> taxi_match(profile.taxi_count(), kDummy);
  std::vector<std::size_t> next_choice(profile.request_count(), 0);
  std::vector<int> all_requests(profile.request_count());
  std::iota(all_requests.begin(), all_requests.end(), 0);
  std::vector<std::size_t> stack(all_requests.size());
  detail::deferred_acceptance_requests(profile, all_requests, request_to_taxi, taxi_match,
                                       next_choice, stack);
  Matching matching = make_matching(std::move(request_to_taxi), profile.taxi_count());
  O2O_ENSURES(is_stable(profile, matching));
  return matching;
}

Matching gale_shapley_taxis(const PreferenceProfile& profile) {
  obs::StageTimer timer(obs::Stage::kStableMatching);
  std::vector<int> taxi_to_request(profile.taxi_count(), kDummy);
  std::vector<int> request_to_taxi(profile.request_count(), kDummy);
  std::vector<std::size_t> next_choice(profile.taxi_count(), 0);
  std::vector<int> all_taxis(profile.taxi_count());
  std::iota(all_taxis.begin(), all_taxis.end(), 0);
  std::vector<std::size_t> stack(all_taxis.size());
  detail::deferred_acceptance_taxis(profile, all_taxis, taxi_to_request, request_to_taxi,
                                    next_choice, stack);
  Matching matching = make_matching(std::move(request_to_taxi), profile.taxi_count());
  O2O_ENSURES(is_stable(profile, matching));
  return matching;
}

}  // namespace o2o::core
