// The share-group enumeration pipeline's auxiliary machinery (DESIGN.md
// "Group-enumeration pipeline"): the cross-frame GroupCache plus the
// conservative candidate filters (direction cone, SIMD pair certificate)
// the grid-pruned engine in groups.cpp composes. Everything here only
// ever *drops provably infeasible candidates* or *replays verbatim
// verdicts*, so the enumeration output stays bit-identical to the dense
// serial scan whether a cache is passed or not.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
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

/// Cross-frame memo of exact group evaluations, keyed by the members'
/// RequestIds in candidate order. Carried on sim::DispatchContext so the
/// sharing dispatchers re-validate only the delta between consecutive
/// frames instead of re-running `optimal_route` for every surviving
/// candidate.
///
/// Invalidation invariants (DESIGN.md):
///   * A hit requires every member's *content stamp* (pickup, dropoff,
///     seats) to match the stamp recorded at evaluation time; any edit
///     to a request bumps its stamp in begin_frame and voids its entries.
///   * A hit requires the members' relative order to match the recorded
///     order (the key is order-sensitive), because `optimal_route` tie-
///     breaking depends on rider input order. The simulator's pending
///     queue is FIFO with order-preserving erases, so persisting requests
///     never swap order in practice — a swap is a harmless miss.
///   * Entries are keyed to one (θ, require_saving, max group size,
///     taxi_seats, oracle) fingerprint; begin_frame flushes everything
///     when it changes. Taxi *positions* never enter a verdict (only the
///     capacity constant does), so taxis moving between frames cannot
///     stale the cache.
///   * Evaluations are deterministic for fixed member content and
///     oracle, so replaying a stored verdict (lengths, detours, member
///     directs) is bit-identical to re-running evaluate_group. Entries
///     hold no route: no consumer of the cache reads one.
///
/// All methods must be called from the frame-owning thread; the engine
/// consults the cache strictly before and after its parallel evaluation
/// section.
class GroupCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;          ///< candidates answered from the cache
    std::uint64_t stores = 0;        ///< exact evaluations recorded (revalidations)
    std::uint64_t invalidated = 0;   ///< entries dropped (content change / GC)
    std::uint64_t flushes = 0;       ///< full clears (fingerprint change)
    std::uint64_t evictions = 0;     ///< entries dropped by the epoch/size sweep
  };

  enum class Verdict : std::uint8_t { kMiss, kFeasible, kInfeasible };

  /// Binds the cache to this frame's request snapshot: bumps the epoch,
  /// refreshes content stamps, flushes on configuration change, and
  /// garbage-collects entries unseen for a few frames.
  void begin_frame(std::span<const trace::Request> requests, const GroupOptions& options,
                   int taxi_seats, const geo::DistanceOracle* oracle);

  /// Cached verdict for a candidate over the current frame's request
  /// indices (as passed to begin_frame). On kFeasible, `group` is filled
  /// exactly as evaluate_group would have produced it.
  Verdict try_get(const std::size_t* members, std::size_t count, ShareGroup& group);

  /// Records an exact evaluation's verdict; `group` is only read when
  /// `feasible` (must be the evaluate_group output for these members).
  void store(const std::size_t* members, std::size_t count, bool feasible,
             const ShareGroup& group);

  const Stats& stats() const noexcept { return stats_; }
  std::size_t size() const noexcept { return entries_.size(); }
  std::uint64_t epoch() const noexcept { return epoch_; }
  void clear();

  // --- Candidate persistence (sparse path, every cached call) ---
  //
  // Beyond verdicts, the cache persists each request's *pair-candidate
  // neighbor list* and direct distance across frames. The pair-candidate
  // predicate — pick-ups within either rider's padded radius plus the
  // user pickup_radius cut — is purely pairwise in (content, θ,
  // require_saving, oracle, pickup_radius), so a pair of requests whose
  // contents are unchanged since the previous frame must produce the
  // same emission verdict, and warm frames replay it instead of
  // re-running grid queries and dedup. Entries flagged as
  // filter-rejected (direction-cone or SIMD certificate) are proofs of
  // *exact* infeasibility, so skipping them is output-preserving.

  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  /// One frame's churn classification, valid until the next begin_frame.
  struct CandidateFrame {
    bool warm = false;         ///< clean requests may replay persisted lists
    bool direct_warm = false;  ///< persisted direct distances are reusable
    std::vector<std::uint32_t> churn;  ///< frame indices needing fresh grid work
    std::vector<std::uint8_t> clean;   ///< per frame index: 1 = replay-eligible
  };

  /// Starts candidate persistence for this frame (call right after
  /// begin_frame): validates the pickup-radius fingerprint, classifies
  /// every request as clean (content unchanged AND its list was synced
  /// last frame) or churn, and patches the persistent pickup grid from
  /// the frame's arrival/departure/move delta.
  const CandidateFrame& begin_candidates(double pickup_radius_km);

  /// Persisted direct distance of a clean index (CandidateFrame::direct_warm
  /// must hold; the value is the bitwise oracle result from the frame
  /// that stored it).
  double persisted_direct(std::size_t index) const;

  /// Clean `index`'s persisted neighbors, packed as
  /// (uint32(RequestId) << 1) | filter_rejected.
  std::span<const std::uint64_t> neighbor_list(std::size_t index) const;

  /// Current frame index of `id`, or kNoIndex when absent this frame.
  std::size_t index_of(trace::RequestId id) const;

  /// Persistent pickup grid keyed by RequestId, patched to the current
  /// frame; nullptr until the first store_candidates builds it.
  const index::SpatialGrid* candidate_grid() const noexcept {
    return cand_grid_ ? &*cand_grid_ : nullptr;
  }

  /// Records this frame's candidate work: `keys` are the sorted,
  /// deduplicated pre-filter pair keys covering every pair with a churn
  /// member (all pairs on a cold frame); flags[k] == 1 marks keys the
  /// conservative filters certified infeasible. `direct` spans all frame
  /// indices (read only when direct_valid). Builds the persistent pickup
  /// grid on the first call.
  void store_candidates(std::span<const std::uint64_t> keys,
                        std::span<const std::uint8_t> flags,
                        std::span<const double> direct, bool direct_valid,
                        double cell_km);

 private:
  struct Key {
    std::array<trace::RequestId, 3> ids;  ///< ids[2] == kInvalidRequest for pairs
    // Spelled out: the defaulted operator compiles to a memcmp call on
    // the probe's hottest line.
    friend bool operator==(const Key& a, const Key& b) noexcept {
      return a.ids[0] == b.ids[0] && a.ids[1] == b.ids[1] && a.ids[2] == b.ids[2];
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };
  /// Fixed-size and heap-free: a hit is one record copy.
  struct Entry {
    std::array<std::uint64_t, 3> stamps{};  ///< member content stamps at eval time
    bool feasible = false;
    std::uint64_t last_used = 0;
    // Payload, populated for feasible entries only.
    double pooled_length_km = 0.0;
    double direct_sum_km = 0.0;
    double max_detour_km = 0.0;
    std::array<double, MemberList::kCapacity> member_direct{};
  };
  static_assert(std::is_trivially_copyable_v<Entry>);
  struct IdState {
    geo::Point pickup;
    geo::Point dropoff;
    int seats = 0;
    std::uint64_t stamp = 0;      ///< bumped whenever the content changes
    std::uint64_t last_seen = 0;  ///< epoch of the last frame listing the id
    std::uint64_t stamp_epoch = 0;  ///< epoch the stamp last changed
    // Candidate persistence payload.
    std::uint64_t cand_epoch = 0;   ///< epoch the neighbor list was last synced
    double direct_km = 0.0;         ///< persisted oracle direct distance
    std::vector<std::uint64_t> cand;  ///< packed neighbors: (id << 1) | rejected
  };

  /// Open-addressing (linear-probe, power-of-two, tombstoned) map from
  /// Key to Entry. Probing walks a dense key/state pair of arrays; the
  /// fat entries sit in a parallel array touched only on a key match.
  /// Semantically a plain hash map — it exists because the warm-frame
  /// lookup storm (hundreds of thousands of try_get/store calls) spends
  /// most of its time chasing unordered_map nodes otherwise.
  class EntryMap {
   public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    std::size_t find_slot(const Key& key) const;
    Entry& entry_at(std::size_t slot) { return entries_[slot]; }
    /// Insert-or-overwrite slot for `key`; returns the entry to fill.
    Entry& put(const Key& key);
    void erase_slot(std::size_t slot);
    /// Drops every entry with last_used + max_age < epoch; returns count.
    std::size_t sweep(std::uint64_t epoch, std::uint64_t max_age);
    void clear();
    std::size_t size() const noexcept { return size_; }

   private:
    std::vector<Key> keys_;
    std::vector<std::uint8_t> state_;  ///< 0 empty, 1 full, 2 tombstone
    std::vector<Entry> entries_;
    std::size_t size_ = 0;
    std::size_t tombs_ = 0;
    std::size_t mask_ = 0;  ///< capacity - 1 (capacity is a power of two)

    void rehash(std::size_t capacity);
    void reserve_for_insert();
  };

  Key key_of(const std::size_t* members, std::size_t count) const;
  void reset_candidates();
  void index_frame_ids();

  std::span<const trace::Request> requests_;  ///< valid between begin_frame calls
  EntryMap entries_;
  std::unordered_map<trace::RequestId, IdState> ids_;
  /// RequestId per current-frame index, mirrored out of requests_ in
  /// begin_frame so key_of reads one dense array.
  std::vector<trace::RequestId> frame_ids_;
  /// This frame's id -> index map for index_of: open addressing over a
  /// power-of-two table of (uint32(id) << 32) | index words, kEmptySlot
  /// where free. Rebuilt in begin_frame; one multiply and a short probe
  /// per neighbor instead of a node-based hash lookup.
  std::vector<std::uint64_t> index_slots_;
  int index_shift_ = 64;
  /// Content stamp per current-frame request index, mirrored out of ids_
  /// in begin_frame so the per-candidate stamp checks in try_get/store
  /// are array reads instead of hash lookups.
  std::vector<std::uint64_t> frame_stamps_;
  /// Per current-frame index: the id's state node (stable pointers —
  /// ids_ is node-based and never erases live ids). Lets the candidate
  /// paths skip the hash lookup per request.
  std::vector<IdState*> frame_states_;
  std::uint64_t epoch_ = 0;
  std::uint64_t stamp_counter_ = 0;
  /// Live entry count right after the last sweep; the size trigger fires
  /// when the map doubles past it (streaming churn between periodic
  /// sweeps would otherwise grow the map without bound).
  std::size_t live_after_sweep_ = 0;
  Stats stats_;

  // Candidate-persistence state.
  CandidateFrame cand_frame_;
  std::optional<index::SpatialGrid> cand_grid_;  ///< RequestId-keyed pickups
  std::vector<trace::RequestId> cand_prev_ids_;  ///< grid membership last frame
  double cand_radius_km_ = std::numeric_limits<double>::quiet_NaN();
  bool cand_direct_valid_ = false;
  std::uint64_t cand_synced_epoch_ = 0;  ///< epoch store_candidates last ran

  // Frame fingerprint the entries are valid under.
  double theta_ = 0.0;
  bool require_saving_ = false;
  int max_group_size_ = 0;
  int taxi_seats_ = 0;
  const geo::DistanceOracle* oracle_ = nullptr;
  bool bound_ = false;
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
