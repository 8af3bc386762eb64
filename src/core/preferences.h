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
// from score matrices (dense) or per-request candidate rows (sparse), so
// the sharing dispatcher reuses it for packed super-requests with the
// D_ck(...) score definitions.
//
// The sparse representation stores only scored (request, taxi) pairs —
// preference lists plus a hash-based rank/score lookup — instead of the
// |R|×|T| matrices. With a finite passenger threshold, candidate rows
// come from a SpatialGrid radius query, so construction cost scales with
// the number of nearby taxis rather than the fleet size. Pairs beyond
// the passenger threshold can never be matched (the request ranks them
// past its dummy), and dropping them preserves the relative order of
// every taxi list, so both representations yield identical matchings.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <unordered_map>
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
  /// When the passenger threshold is finite, score only taxis inside a
  /// spatial-grid radius query instead of all |R|×|T| pairs. Produces
  /// identical matchings; set to false to force the dense path.
  bool spatial_prune = true;
};

/// Strict, truncated preference lists plus O(1) rank lookup. Row r /
/// column t of the score matrices corresponds to request r and taxi t
/// (or packed super-request r in the sharing case).
class PreferenceProfile {
 public:
  /// One scored (request, taxi) pair of a sparse candidate row. Either
  /// score may be kUnacceptable, but a pair unacceptable on both sides
  /// should simply be omitted.
  struct Candidate {
    int taxi = -1;
    double passenger_score = kUnacceptable;
    double taxi_score = kUnacceptable;
  };

  /// Builds lists from dense score matrices (lower score = more
  /// preferred; kUnacceptable = past the dummy). Ties break toward the
  /// lower index, making all orders strict and runs deterministic.
  /// `taxi_count` is explicit so a zero-request frame still reports the
  /// live fleet size.
  static PreferenceProfile from_scores(std::vector<std::vector<double>> passenger_scores,
                                       std::vector<std::vector<double>> taxi_scores,
                                       std::size_t taxi_count, std::size_t list_cap = 0);

  /// Builds a sparse profile from per-request candidate rows. Each
  /// (request, taxi) pair may appear at most once; unlisted pairs are
  /// unacceptable on both sides. Same ordering and tie-breaking rules as
  /// from_scores.
  static PreferenceProfile from_candidates(std::vector<std::vector<Candidate>> candidates,
                                           std::size_t taxi_count, std::size_t list_cap = 0);

  std::size_t request_count() const noexcept { return request_count_; }
  std::size_t taxi_count() const noexcept { return taxi_count_; }
  /// Whether this profile uses the sparse (hash-backed) representation.
  bool sparse() const noexcept { return sparse_; }

  /// Request r's taxi list, most preferred first, truncated at the dummy.
  const std::vector<int>& request_list(std::size_t r) const;
  /// Taxi t's request list, most preferred first, truncated at the dummy.
  const std::vector<int>& taxi_list(std::size_t t) const;

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
  /// In sparse mode, unlisted pairs report kUnacceptable.
  double passenger_score(std::size_t r, std::size_t t) const;
  double taxi_score(std::size_t t, std::size_t r) const;

  static constexpr std::size_t kNoRank = std::numeric_limits<std::size_t>::max();

 private:
  struct PairEntry {
    double passenger_score = kUnacceptable;
    double taxi_score = kUnacceptable;
    std::size_t request_rank = kNoRank;
    std::size_t taxi_rank = kNoRank;
  };

  static std::uint64_t pair_key(std::size_t r, std::size_t t) noexcept {
    return (static_cast<std::uint64_t>(r) << 32) | static_cast<std::uint64_t>(t);
  }
  const PairEntry* find_pair(std::size_t r, std::size_t t) const;

  bool sparse_ = false;
  std::size_t request_count_ = 0;
  std::size_t taxi_count_ = 0;
  std::vector<std::vector<int>> request_prefs_;
  std::vector<std::vector<int>> taxi_prefs_;
  // Dense storage (array-backed rank/score lookup).
  std::vector<std::vector<std::size_t>> request_ranks_;  // [r][t]
  std::vector<std::vector<std::size_t>> taxi_ranks_;     // [t][r]
  std::vector<std::vector<double>> passenger_scores_;    // [r][t]
  std::vector<std::vector<double>> taxi_scores_;         // [r][t]
  // Sparse storage: (r, t) -> ranks and scores for listed pairs only.
  std::unordered_map<std::uint64_t, PairEntry> pairs_;
};

/// Non-sharing profile straight from geometry (Section IV-A): passenger
/// score D(t, r.s), taxi score D(t, r.s) - α D(r.s, r.d); seat-infeasible
/// pairs are unacceptable on both sides (the paper pushes them past the
/// dummy).
///
/// With `params.spatial_prune` and a finite passenger threshold the
/// profile is built sparsely from a grid radius query. `taxi_grid`, when
/// given, must be keyed by position in `taxis` (see the SpatialGrid span
/// constructor); when null a local grid is built on the fly.
PreferenceProfile build_nonsharing_profile(std::span<const trace::Taxi> taxis,
                                           std::span<const trace::Request> requests,
                                           const geo::DistanceOracle& oracle,
                                           const PreferenceParams& params,
                                           const index::SpatialGrid* taxi_grid = nullptr);

/// Runs body(i) for every i in [0, count) — on the shared ThreadPool when
/// `oracle` allows concurrent queries and the range is large enough to pay
/// for the fan-out, serially otherwise. Iterations must be independent and
/// write only disjoint, preallocated slots, which also keeps the parallel
/// schedule deterministic.
void for_each_row(std::size_t count, const geo::DistanceOracle& oracle,
                  const std::function<void(std::size_t)>& body);

}  // namespace o2o::core
