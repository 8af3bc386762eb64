// Algorithm 1 of the paper: passenger-proposing deferred acceptance with
// dummy partners (NSTD-P), its taxi-proposing mirror (the direct route to
// the taxi-optimal schedule, cross-checked against Algorithm 2 in tests),
// and the Definition-1 stability verifier.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/preferences.h"

namespace o2o::core {

/// Which side proposes in deferred acceptance (and therefore which side
/// the resulting stable schedule is optimal for).
enum class ProposalSide {
  kPassengers,  ///< passenger-optimal schedule (NSTD-P / STD-P)
  kTaxis,       ///< taxi-optimal schedule (NSTD-T / STD-T)
};

/// A taxi dispatch schedule S. request_to_taxi[r] is the matched taxi
/// index, or kDummy (unserved); taxi_to_request mirrors it.
struct Matching {
  std::vector<int> request_to_taxi;
  std::vector<int> taxi_to_request;

  std::size_t matched_count() const noexcept;

  friend bool operator==(const Matching& a, const Matching& b) {
    return a.request_to_taxi == b.request_to_taxi;  // the mirror is derived
  }
};

/// Builds the taxi_to_request mirror from request_to_taxi.
Matching make_matching(std::vector<int> request_to_taxi, std::size_t taxi_count);

/// Structural validity: indices in range, mirror consistent, every
/// matched pair mutually acceptable (a matched-but-unacceptable pair
/// violates Definition 1 against the dummy).
bool is_valid(const PreferenceProfile& profile, const Matching& matching);

/// Definition 1 stability check: valid and no blocking pair.
bool is_stable(const PreferenceProfile& profile, const Matching& matching);

/// All blocking pairs (r, t): mutually acceptable pairs where both sides
/// prefer each other over their current partners (dummies included).
/// Cost is linear in the listed pairs (every mutually acceptable pair is
/// on its request's candidate list), not in the |R|×|T| rectangle.
std::vector<std::pair<std::size_t, std::size_t>> blocking_pairs(
    const PreferenceProfile& profile, const Matching& matching);

/// Algorithm 1 (NSTD-P): the passenger-optimal stable schedule.
Matching gale_shapley_requests(const PreferenceProfile& profile);

/// Taxi-proposing deferred acceptance: the taxi-optimal stable schedule.
Matching gale_shapley_taxis(const PreferenceProfile& profile);

namespace detail {

// Subset deferred acceptance — the building block the component-sharded
// engine (core/shard_engine.h) runs once per connected component of the
// candidate graph. All spans are profile-sized and may be shared across
// concurrent calls: a call touches only its own proposers' slots and the
// receivers on their candidate lists, which stay inside the component by
// construction, so concurrent per-component calls write disjoint memory
// and the merged result is deterministic (and equal to one global pass:
// the deferred-acceptance outcome is proposal-order independent).
//
// Preconditions: `requests` (resp. `taxis`) ascending; their match and
// next_choice slots initialized to kDummy / 0. `stack` is the pass's own
// scratch for its free proposers: at least as many entries as proposers,
// and not shared with a concurrent call.

/// Passenger-proposing pass restricted to `requests`. Proposers whose
/// match slot is already set (validated warm-start seeds, below) are not
/// enqueued; with all slots at kDummy this is the cold pass verbatim.
void deferred_acceptance_requests(const PreferenceProfile& profile,
                                  std::span<const int> requests,
                                  std::span<int> request_match, std::span<int> taxi_match,
                                  std::span<std::size_t> next_choice,
                                  std::span<std::size_t> stack);

/// Taxi-proposing pass restricted to `taxis`.
void deferred_acceptance_taxis(const PreferenceProfile& profile,
                               std::span<const int> taxis, std::span<int> taxi_match,
                               std::span<int> request_match,
                               std::span<std::size_t> next_choice,
                               std::span<std::size_t> stack);

// Warm-start seed validation (DESIGN.md "Incremental frame engine").
//
// A seed (u -> receiver) from the previous frame's matching may only be
// installed when the resulting state is reachable by a legal deferred-
// acceptance execution prefix; DA's proposal-order independence then
// guarantees the continued run produces the cold output bit for bit.
// Naive "both sides still accept each other" seeding is NOT sound --
// cyclically-justified seeds can pin the proposer-pessimal matching (see
// the 2x2 counterexample in DESIGN.md) -- so validation is sequential:
// seed (u, t) installs only if t accepts u over the dummy, t is still
// unclaimed, and every receiver strictly before t on u's list certifiably
// rejects u, where a certificate may reference only seeds validated
// *earlier in the scan*. Validated proposers get their hold and
// next_choice advanced past it; everyone else runs cold from the top of
// their list. Returns the number of seeds installed.

/// Passenger-proposing validation restricted to `requests`; seed[r] is
/// the hinted taxi index or kDummy, indexed over the whole profile.
std::size_t warm_seed_requests(const PreferenceProfile& profile,
                               std::span<const int> requests, std::span<const int> seed,
                               std::span<int> request_match, std::span<int> taxi_match,
                               std::span<std::size_t> next_choice);

/// Taxi-proposing validation restricted to `taxis`; seed[t] is the
/// hinted request index or kDummy.
std::size_t warm_seed_taxis(const PreferenceProfile& profile, std::span<const int> taxis,
                            std::span<const int> seed, std::span<int> taxi_match,
                            std::span<int> request_match,
                            std::span<std::size_t> next_choice);

/// Definition-1 check restricted to one component (sparse: walks the
/// member requests' candidate lists). The conjunction over a partition's
/// components — with every isolated agent left at kDummy — is equivalent
/// to is_stable on the whole profile.
bool component_stable(const PreferenceProfile& profile, std::span<const int> requests,
                      std::span<const int> taxis, std::span<const int> request_match,
                      std::span<const int> taxi_match);

}  // namespace detail

}  // namespace o2o::core
