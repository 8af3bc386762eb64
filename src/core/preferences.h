// Preference construction (Section IV-A of the paper).
//
// Passenger side: request r_j ranks taxis by the pick-up distance
// D(t_i, r_j^s) -- nearer is better. Taxi side: driver t_i ranks requests
// by D(t_i, r_j^s) - α · D(r_j^s, r_j^d) -- the approach expense net of
// the (fare-proportional) trip pay-off. Each side's list carries exactly
// one *dummy entry* (Theorem 1): scores beyond a reservation threshold
// fall past the dummy and are unacceptable, which is how the model
// expresses "no dispatch" / "no service" and handles |R| != |T|.
//
// PreferenceProfile is deliberately agnostic of geometry: it is built
// from per-request candidate rows, so the sharing dispatcher reuses it
// for packed super-requests with the D_ck(...) score definitions.
//
// A profile stores only the scored (request, taxi) pairs: each side's
// preference lists packed into one flat array with per-agent offsets
// (compressed sparse rows), plus a flat open-addressing table from each
// pair to its ranks and scores, never an |R|×|T| matrix. A pair unacceptable on both sides
// is simply absent. With a finite passenger threshold the candidate rows
// come from a SpatialGrid radius query, so construction cost scales with
// the number of nearby taxis rather than the fleet size: pairs beyond
// the threshold can never be matched (the request ranks them past its
// dummy), and dropping them preserves the relative order of every taxi
// list. The dense all-pairs builds that pin this live in
// tests/reference/profiles.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "geo/distance_oracle.h"
#include "trace/fleet.h"
#include "trace/request.h"

namespace o2o::index {
class SpatialGrid;
}  // namespace o2o::index

namespace o2o::core {

inline constexpr double kUnacceptable = std::numeric_limits<double>::infinity();
inline constexpr int kDummy = -1;  ///< partner index meaning "no dispatch"

/// Model coefficients and reservation thresholds.
struct PreferenceParams {
  double alpha = 1.0;  ///< taxi expense/pay-off trade-off (α)
  double beta = 1.0;   ///< sharing wait/detour trade-off (β)
  /// Dummy position on the passenger side: taxis with pick-up distance
  /// beyond this are worse than no dispatch.
  double passenger_threshold_km = std::numeric_limits<double>::infinity();
  /// Dummy position on the taxi side: requests with score
  /// D(t, r.s) - α D(r.s, r.d) above this are worse than no service.
  double taxi_threshold_score = std::numeric_limits<double>::infinity();
  /// Optional ablation knob: keep only the best `list_cap` entries of
  /// every preference list (0 = full lists).
  std::size_t list_cap = 0;
};

/// Strict, truncated preference lists plus O(1) rank lookup over request
/// r and taxi t (or packed super-request r in the sharing case).
class PreferenceProfile {
 public:
  /// One scored (request, taxi) pair of a candidate row. Either
  /// score may be kUnacceptable, but a pair unacceptable on both sides
  /// should simply be omitted.
  struct Candidate {
    int taxi = -1;
    double passenger_score = kUnacceptable;
    double taxi_score = kUnacceptable;
  };

  /// Builds lists from [request][taxi] score matrices (lower score = more
  /// preferred; kUnacceptable = past the dummy) by handing every pair
  /// acceptable on at least one side to from_candidates. `taxi_count` is
  /// explicit so a zero-request frame still reports the live fleet size.
  static PreferenceProfile from_scores(std::vector<std::vector<double>> passenger_scores,
                                       std::vector<std::vector<double>> taxi_scores,
                                       std::size_t taxi_count, std::size_t list_cap = 0);

  /// Builds a profile from per-request candidate rows. Each (request,
  /// taxi) pair may appear at most once; unlisted pairs are unacceptable
  /// on both sides. Ties break toward the lower index, making all orders
  /// strict and runs deterministic. Requires fewer than 2^32 rows and
  /// taxi_count <= INT_MAX (candidate taxis are ints).
  static PreferenceProfile from_candidates(std::vector<std::vector<Candidate>> candidates,
                                           std::size_t taxi_count, std::size_t list_cap = 0);

  /// from_candidates over rows that live in caller-owned memory (the
  /// profile build's per-lane arenas). Each row is sorted in place.
  static PreferenceProfile from_candidate_rows(std::span<const std::span<Candidate>> rows,
                                               std::size_t taxi_count,
                                               std::size_t list_cap = 0);

  std::size_t request_count() const noexcept { return request_count_; }
  std::size_t taxi_count() const noexcept { return taxi_count_; }

  /// Request r's taxi list, most preferred first, truncated at the dummy.
  std::span<const int> request_list(std::size_t r) const;
  /// Taxi t's request list, most preferred first, truncated at the dummy.
  std::span<const int> taxi_list(std::size_t t) const;

  /// Rank of taxi t in r's list (0 = best); SIZE_MAX when unacceptable.
  std::size_t request_rank(std::size_t r, std::size_t t) const;
  /// Rank of request r in t's list; SIZE_MAX when unacceptable.
  std::size_t taxi_rank(std::size_t t, std::size_t r) const;

  /// Mutual acceptability (both sides prefer each other over the dummy).
  bool acceptable(std::size_t r, std::size_t t) const;

  /// True iff r strictly prefers taxi a over taxi b (kDummy allowed on
  /// either side; any acceptable taxi beats the dummy).
  bool request_prefers(std::size_t r, int a, int b) const;
  /// True iff t strictly prefers request a over request b.
  bool taxi_prefers(std::size_t t, int a, int b) const;

  /// Raw scores (kUnacceptable past the dummy), for schedule evaluation.
  /// Unlisted pairs report kUnacceptable.
  double passenger_score(std::size_t r, std::size_t t) const;
  double taxi_score(std::size_t t, std::size_t r) const;

  static constexpr std::size_t kNoRank = std::numeric_limits<std::size_t>::max();

 private:
  /// Ranks fit 32 bits: a list is no longer than the request count
  /// (< 2^32) or the taxi count (<= INT_MAX).
  static constexpr std::uint32_t kNoRank32 = std::numeric_limits<std::uint32_t>::max();

  struct PairEntry {
    double passenger_score = kUnacceptable;
    double taxi_score = kUnacceptable;
    std::uint32_t request_rank = kNoRank32;
    std::uint32_t taxi_rank = kNoRank32;
  };

  /// One slot of the open-addressing pair table; key kEmptyKey marks a
  /// free slot.
  struct PairSlot {
    std::uint64_t key;
    PairEntry entry;
  };

  /// No valid pair_key equals it: from_candidates requires r < 2^32 and
  /// t <= INT_MAX, so a key's low word is below 2^31.
  static constexpr std::uint64_t kEmptyKey = std::numeric_limits<std::uint64_t>::max();

  static std::uint64_t pair_key(std::size_t r, std::size_t t) noexcept {
    return (static_cast<std::uint64_t>(r) << 32) | static_cast<std::uint64_t>(t);
  }
  static std::size_t widen(std::uint32_t rank) noexcept;  // kNoRank32 -> kNoRank
  const PairEntry* find_pair(std::size_t r, std::size_t t) const;
  /// The slot holding `key`, or the free slot where it belongs.
  PairSlot& slot_for(std::uint64_t key);

  std::size_t request_count_ = 0;
  std::size_t taxi_count_ = 0;
  // Request r's list is request_lists_[request_offsets_[r] ..
  // request_offsets_[r + 1]); likewise for taxis.
  std::vector<std::size_t> request_offsets_;
  std::vector<int> request_lists_;
  std::vector<std::size_t> taxi_offsets_;
  std::vector<int> taxi_lists_;
  // (r, t) -> ranks and scores for listed pairs only: linear probing over
  // a power-of-two table at most half full, hashed with o2o::mix64.
  std::vector<PairSlot> pairs_;
  std::uint64_t pair_mask_ = 0;
};

/// Non-sharing profile straight from geometry (Section IV-A): passenger
/// score D(t, r.s), taxi score D(t, r.s) - α D(r.s, r.d); seat-infeasible
/// pairs are unacceptable on both sides (the paper pushes them past the
/// dummy).
///
/// With a finite passenger threshold each request's candidates come from
/// a grid radius query (see candidate_grid); otherwise every taxi is a
/// candidate. Rows are scored on the shared ThreadPool (for_each_row);
/// each lane appends its rows to an arena owned by the calling thread,
/// which a warm build reuses, so only the profile's own arrays are
/// allocated.
PreferenceProfile build_nonsharing_profile(std::span<const trace::Taxi> taxis,
                                           std::span<const trace::Request> requests,
                                           const geo::DistanceOracle& oracle,
                                           const PreferenceParams& params,
                                           const index::SpatialGrid* taxi_grid = nullptr);

/// The grid a profile build draws candidate taxis from. Null when the
/// passenger threshold is infinite or there are no taxis: every taxi is
/// then a candidate. Otherwise `taxi_grid` when given (it must be keyed by
/// position in `taxis`, see the SpatialGrid span constructor), else a
/// frame-local grid with clamp(τ_p / 2, 0.25, 8) km cells built into
/// `local_grid`.
const index::SpatialGrid* candidate_grid(std::span<const trace::Taxi> taxis,
                                         double passenger_threshold_km,
                                         const index::SpatialGrid* taxi_grid,
                                         std::optional<index::SpatialGrid>& local_grid);

/// Runs body(i) for every i in [0, count) — on the shared ThreadPool when
/// `oracle` allows concurrent queries and the range is large enough to pay
/// for the fan-out, serially otherwise. Iterations must be independent and
/// write only disjoint, preallocated slots or per-lane buffers
/// (ThreadPool::current_lane(), below ThreadPool::shared().lane_count()),
/// which also keeps the parallel schedule deterministic.
void for_each_row(std::size_t count, const geo::DistanceOracle& oracle,
                  const std::function<void(std::size_t)>& body);

}  // namespace o2o::core
