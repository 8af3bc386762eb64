// The share-group enumeration pipeline's auxiliary machinery (DESIGN.md
// "Group-enumeration pipeline"): the cross-frame GroupCache plus the
// conservative candidate filters (direction cone, SIMD pair certificate)
// the grid-pruned engine in groups.cpp composes.
//
// The cache rests on one invariant: a group's verdict and payload are a
// pure function of its members' content, their relative order and the
// frame fingerprint. So the feasible groups whose members are all
// *clean* (unchanged and in the same relative order since the last
// enumeration) are exactly the last output's all-clean groups, remapped
// to the current indices. Replaying them needs no probe and no
// evaluation; an all-clean candidate missing from the last output was
// infeasible then and still is. Only candidates with a churn member are
// generated and resolved fresh, so a warm frame's work grows with churn,
// not with the group count, and the output stays bit-identical to the
// dense serial scan whether a cache is passed or not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "geo/distance_oracle.h"
#include "index/spatial_grid.h"
#include "packing/groups.h"
#include "trace/request.h"

namespace o2o::packing {

/// Slack absorbing bulk-row-vs-pointwise and hypot-vs-sqrt ulp noise in
/// the conservative filters, mirroring the grid prefilter's pad. Any
/// candidate within this margin of a predicate boundary is kept and
/// resolved by the exact scalar evaluation.
inline constexpr double kFilterPadKm = 1e-6;

/// The last enumeration, kept for positional replay. Carried on
/// sim::DispatchContext so the sharing dispatchers resolve only the
/// candidates that churn touched instead of every surviving candidate.
///
/// What is kept: the last enumeration's requests (id, pick-up, drop-off,
/// seats, direct km) with their id -> index table, the persistent pickup
/// grid, and the output (the feasible groups as 64-byte records, pairs
/// then triples, each in lexicographic order).
///
/// Replay invariants (DESIGN.md):
///   * A request is clean when the last enumeration held its id with
///     bitwise-equal pick-up, drop-off and seats, and its order relative
///     to the other clean requests is unchanged (the longest run of
///     matched requests whose last indices increase). Order matters
///     because the route search breaks ties by rider input order; the
///     simulator's FIFO pending queue never swaps survivors, so in
///     practice only edits, arrivals and returns are churn.
///   * The output is keyed to one (θ, require_saving, max group size,
///     taxi_seats, oracle, pickup radius) fingerprint; a change makes
///     the frame cold (all churn). Taxi positions never enter a verdict,
///     so taxis moving between frames cannot stale it.
///   * Remapping is monotone on the clean set, so the replayed groups
///     keep lexicographic order, and a linear merge with the fresh
///     groups reproduces the dense scan's order exactly.
///   * A frame with fewer than two requests enumerates nothing and
///     leaves the cache untouched; the next frame replays against the
///     enumeration before it, which is equally sound.
///
/// All methods must be called from the frame-owning thread.
class GroupCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;     ///< feasible groups replayed from the last output
    std::uint64_t stores = 0;   ///< exact evaluations (fresh candidates past the filters)
    std::uint64_t flushes = 0;  ///< outputs dropped on a fingerprint change
  };

  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  /// One frame's churn classification, valid until the next begin_frame.
  struct Frame {
    std::vector<std::uint8_t> clean;   ///< per frame index: 1 = replayed from the last output
    std::vector<std::uint32_t> churn;  ///< frame indices needing fresh work, ascending
    std::size_t clean_count() const noexcept { return clean.size() - churn.size(); }
  };

  /// Binds the cache to this frame's request snapshot (two or more
  /// requests): checks the fingerprint and classifies every request as
  /// clean or churn against the last enumeration.
  const Frame& begin_frame(std::span<const trace::Request> requests, const GroupOptions& options,
                           int taxi_seats, const geo::DistanceOracle* oracle);

  /// The direct distance the last enumeration computed for clean `index`
  /// (the oracle's bitwise result; zero when that frame needed none).
  double last_direct(std::size_t index) const;

  /// Fills `out` with the last output's groups whose members are all
  /// clean, remapped to this frame's indices with their payload bit for
  /// bit: pairs then triples, each in lexicographic order. Returns the
  /// number of pairs.
  std::size_t replay(std::vector<ShareGroup>& out);

  /// Persistent pickup grid keyed by RequestId, patched to this frame
  /// (built with `cell_km` on first use); nullptr, with the grid dropped,
  /// when an id repeats this frame.
  const index::SpatialGrid* pickup_grid(double cell_km);

  /// This frame's index of `id`, or kNoIndex when absent.
  std::size_t index_of(trace::RequestId id) const;

  /// Records this frame as the last enumeration: its requests, their
  /// direct distances (`direct` spans all frame indices) and its output
  /// `groups`; `evaluations` counts the frame's exact evaluations.
  void commit(std::span<const ShareGroup> groups, std::span<const double> direct,
              std::size_t evaluations);

  const Stats& stats() const noexcept { return stats_; }
  /// Groups held from the last enumeration (its output's size).
  std::size_t size() const noexcept { return groups_.size(); }

 private:
  /// Open-addressing id -> index table over one frame's requests.
  class IdTable {
   public:
    /// Rebuilds over `requests`; returns false when an id repeats.
    bool build(std::span<const trace::Request> requests);
    std::size_t find(trace::RequestId id) const;
    void clear() { slots_.clear(); }

   private:
    std::vector<std::uint64_t> slots_;  ///< (uint32(id) << 32) | index, or empty
    int shift_ = 64;
  };

  /// One request of the last enumeration.
  struct Snapshot {
    trace::RequestId id = trace::kInvalidRequest;
    int seats = 0;
    geo::Point pickup;
    geo::Point dropoff;
    double direct_km = 0.0;
  };

  void classify(std::span<const trace::Request> requests);
  void clear();

  std::span<const trace::Request> requests_;  ///< valid between begin_frame and commit
  Frame frame_;
  bool frame_unique_ = false;  ///< this frame's ids are distinct
  IdTable frame_ids_;
  /// Last frame index -> this frame's index of the same clean request;
  /// ~0u where there is none.
  std::vector<std::uint32_t> remap_;

  // The last enumeration.
  std::vector<Snapshot> last_;
  IdTable last_ids_;
  std::vector<ShareGroup> groups_;  ///< its output, in output order

  std::optional<index::SpatialGrid> grid_;  ///< RequestId-keyed pick-ups
  std::vector<trace::RequestId> grid_ids_;  ///< grid membership

  // Fingerprint the output is valid under.
  double theta_ = 0.0;
  bool require_saving_ = false;
  int max_group_size_ = 0;
  int taxi_seats_ = 0;
  double pickup_radius_km_ = std::numeric_limits<double>::quiet_NaN();
  const geo::DistanceOracle* oracle_ = nullptr;
  bool bound_ = false;
  Stats stats_;
};

/// Statistics of one conservative-filter pass (for the obs counters).
struct FilterStats {
  std::size_t kept = 0;
  std::size_t rejected = 0;
  std::size_t batches = 0;  ///< 8-lane SIMD batches executed
  std::size_t lanes = 0;    ///< lanes actually occupied across them
};

/// Direction-cone prune over lexicographically sorted pair keys
/// ((i << 32) | j): drops pairs for which neither pick-up lies within
/// the other rider's (direct + θ) ellipse — a necessary condition for a
/// *saving* pair on any oracle dominating the Euclidean metric (the same
/// standing assumption as the grid's derived radius). Compacts
/// `pair_keys` in place, preserving order.
FilterStats cone_prune_pairs(std::span<const trace::Request> requests,
                             std::span<const double> direct, double theta,
                             std::vector<std::uint64_t>& pair_keys);

/// SoA leg gather + SIMD conservative pair certificate over sorted pair
/// keys: pulls the six cross legs via bulk oracle rows (grouped by the
/// shared first member, halved for symmetric oracles) and marks
/// keep[k] = 0 for pairs that provably fail the saving-or-detour
/// predicates with kFilterPadKm slack. Requires options.require_saving
/// (the certificate's order restriction rests on it).
FilterStats simd_certify_pairs(std::span<const trace::Request> requests,
                               const geo::DistanceOracle& oracle,
                               std::span<const double> direct, const GroupOptions& options,
                               std::span<const std::uint64_t> pair_keys,
                               std::vector<std::uint8_t>& keep);

}  // namespace o2o::packing
