// Feasible share-group enumeration (line 1 of the paper's Algorithm 3):
// the set C of all subsets c_k of passenger requests (2 <= |c_k| <= 3)
// that can share one taxi, i.e. whose optimal pooled route keeps every
// member's detour D_ck(r.s, r.d) - D(r.s, r.d) within the threshold θ.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "geo/distance_oracle.h"
#include "routing/route.h"
#include "trace/request.h"
#include "util/contracts.h"

namespace o2o::packing {

/// A share group's member indices (2 or 3 of them) held inline, so a
/// group owns no heap memory. Reads like a const std::vector<size_t>:
/// indexable, iterable, and implicitly convertible to one. Slots past
/// size() stay zero, so defaulted equality is member-list equality.
class MemberList {
 public:
  static constexpr std::size_t kCapacity = 3;

  void assign(const std::size_t* members, std::size_t count) {
    O2O_EXPECTS(count <= kCapacity);
    slots_ = {};
    for (std::size_t m = 0; m < count; ++m) {
      slots_[m] = static_cast<std::uint32_t>(members[m]);
    }
    count_ = static_cast<std::uint32_t>(count);
  }

  std::size_t size() const noexcept { return count_; }
  std::size_t operator[](std::size_t m) const noexcept { return slots_[m]; }
  const std::uint32_t* begin() const noexcept { return slots_.data(); }
  const std::uint32_t* end() const noexcept { return slots_.data() + count_; }
  operator std::vector<std::size_t>() const { return {begin(), end()}; }

  friend bool operator==(const MemberList&, const MemberList&) = default;
  friend bool operator==(const MemberList& list, const std::vector<std::size_t>& other) {
    return std::equal(list.begin(), list.end(), other.begin(), other.end());
  }

 private:
  std::array<std::uint32_t, kCapacity> slots_{};
  std::uint32_t count_ = 0;
};

/// One feasible shared ride over concrete requests: a fixed-size record
/// with no route (dispatch_sharing routes each packed unit from its taxi;
/// evaluate_group hands the pooled route back on request).
struct ShareGroup {
  MemberList member_indices;       ///< indices into the request span
  double pooled_length_km = 0.0;   ///< length of the optimal pooled route
  double direct_sum_km = 0.0;      ///< Σ_j D(r_j.s, r_j.d)
  double max_detour_km = 0.0;      ///< worst member detour
  /// D(r_j.s, r_j.d) per member, aligned with member_indices (slots past
  /// the member count stay zero) — computed during evaluation so
  /// downstream consumers (dispatch_sharing's per-unit savings) never
  /// re-query the oracle for them.
  std::array<double, MemberList::kCapacity> member_direct_km{};
};
static_assert(std::is_trivially_copyable_v<ShareGroup>);

struct GroupOptions {
  double detour_threshold_km = 5.0;  ///< θ
  int max_group_size = 3;            ///< the paper's practical |c_k| <= 3
  /// Requests whose pick-ups are farther apart than this can never ride
  /// together (cheap pre-filter; +inf disables). Independently of this
  /// user cap, the engine derives a *finite* per-request radius from the
  /// detour threshold whenever `require_saving` holds and θ is finite: a
  /// feasible pair's pooled route cannot be sequential (it would save
  /// nothing), so the first-picked rider i passes the other pick-up
  /// before its own drop-off, which forces
  ///   euclid(i.s, j.s) <= θ/2 + D(i.s, i.d).
  /// Pairs beyond θ/2 + max(direct_i, direct_j) are provably infeasible
  /// and are never evaluated; the bound is asserted on every feasible
  /// pair the engine emits.
  double pickup_radius_km = std::numeric_limits<double>::infinity();
  /// Require the pooled route to be strictly shorter than the sum of the
  /// members' direct trips. Without this, two back-to-back trips served
  /// *sequentially* satisfy the detour constraint with zero detour while
  /// sharing saves nothing -- the paper's model implicitly assumes rides
  /// overlap, and this constraint makes that explicit.
  bool require_saving = true;
};

class GroupCache;  // the last enumeration, for replay (packing/group_enum.h)

/// Enumerates all feasible groups of size in [2, max_group_size] over
/// `requests` (max_group_size is 2 or 3). Seat demands are honoured
/// against `taxi_seats`. Triples are grown from feasible pairs: a triple
/// is a candidate only when all three of its pairs are feasible (the
/// standard pruning; tests/reference also keeps the exhaustive scan).
///
/// One engine serves every call: candidate pairs come from a spatial-grid
/// radius query over pick-ups (the user radius and/or the derived θ-bound
/// above); when `require_saving` holds, a destination-bearing cone prune
/// (finite θ only) and an 8-lane SIMD pair certificate drop provably
/// infeasible candidates before any exact route-search evaluation; the
/// exact evaluations fan out over the shared ThreadPool when the oracle
/// allows concurrent queries. When `cache` is non-null, the groups whose
/// members are all unchanged since the cache's last enumeration are
/// replayed from its output and only candidates with a changed member are
/// generated and evaluated. Every stage only drops provably infeasible
/// candidates or replays verbatim records, so the output is the dense
/// serial scan's — the same groups in the same order, bit for bit (pinned
/// against the test-only reference in tests/reference).
///
/// Requests may share a RequestId: the route search tells riders apart
/// by position, and no route is built here. (o2o_serve rejects frames
/// with duplicate order ids before dispatch.)
std::vector<ShareGroup> enumerate_share_groups(std::span<const trace::Request> requests,
                                               const geo::DistanceOracle& oracle,
                                               const GroupOptions& options,
                                               int taxi_seats = 4,
                                               GroupCache* cache = nullptr);

/// Builds the ShareGroup record (lengths + detours) for one candidate
/// member set of 2 or 3 requests; `feasible` is set false when any detour
/// exceeds θ or the seat demand exceeds `taxi_seats`. When `route` is
/// non-null it receives the optimal pooled route (no taxi anchor) the
/// record was priced from; it stays empty when the seat check fails.
/// Only that route needs the members' ids to be distinct: its id-level
/// precedence check cannot tell two riders under one id apart.
ShareGroup evaluate_group(std::span<const trace::Request> requests,
                          const std::vector<std::size_t>& member_indices,
                          const geo::DistanceOracle& oracle, const GroupOptions& options,
                          int taxi_seats, bool& feasible, routing::Route* route = nullptr);

}  // namespace o2o::packing
