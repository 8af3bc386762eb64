// Uniform spatial grid over integer-keyed moving objects (taxis, request
// pick-ups). Its one query is the radius query: it draws a preference
// build's candidate taxis, the share-group enumerator's candidate pairs
// and the RAII baseline's search area. However far apart the points are,
// the grid uses at most max(2^18, 4 × points) cells (the cell widens
// until the count fits) and holds at most twice as many buckets.
//
// Storage is flat: one bucket vector per cell plus an open-addressing
// id -> position table, with no heap node per object, so a grid that
// rebuild() refills every frame reuses its memory.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geo/point.h"
#include "trace/fleet.h"

namespace o2o::index {

class SpatialGrid {
 public:
  /// `bounds` is advisory (objects outside are clamped to edge cells).
  SpatialGrid(geo::Rect bounds, double cell_km);

  /// Bulk-builds a grid over a taxi snapshot, keyed by **span index**
  /// (not `Taxi::id`), so `within_radius` results index straight back
  /// into the span. Bounds are the padded bounding box of the taxi
  /// locations; an empty or degenerate span gets a unit box.
  SpatialGrid(std::span<const trace::Taxi> taxis, double cell_km);

  /// Makes this grid what the taxi-span constructor would build over
  /// `taxis` with the grid's requested cell size, reusing its buckets and
  /// its id table: a grid rebuilt every frame allocates only when a bucket
  /// or the table outgrows every earlier frame's.
  void rebuild(std::span<const trace::Taxi> taxis);

  /// Bulk-builds a grid over raw points, keyed by span index — the shape
  /// the share-group enumerator needs (one point per request pick-up).
  /// Same bounds policy as the taxi constructor.
  SpatialGrid(std::span<const geo::Point> points, double cell_km);

  /// Bulk-builds a grid keyed by caller-supplied ids (one per point) —
  /// the shape the persistent cross-frame indexes need, where entries
  /// are patched in and out by stable id rather than span position.
  SpatialGrid(std::span<const std::int32_t> ids, std::span<const geo::Point> points,
              double cell_km);

  /// Inserts or moves object `id` to `position`.
  void upsert(std::int32_t id, geo::Point position);

  /// Delta-patch API: inserts a *new* object (EXPECTS absent). Prefer
  /// these over upsert in incremental-frame code so typos in the delta
  /// computation trip contracts instead of silently self-healing.
  void insert(std::int32_t id, geo::Point position);

  /// Delta-patch API: relocates an *existing* object (EXPECTS present).
  void move(std::int32_t id, geo::Point position);

  /// Removes `id`; no-op when absent.
  void remove(std::int32_t id);

  /// Mutations (insert/move/remove/upsert) applied since the last
  /// compaction. Bulk construction counts as a compaction.
  std::size_t mutations_since_compact() const noexcept { return mutations_; }

  /// Recomputes bounds from the live objects and re-bins every entry.
  /// Queries stay exact either way (membership is a pure distance
  /// predicate and out-of-bounds objects clamp to edge cells); this
  /// bounds refresh only restores query *speed* after drift. Runs
  /// automatically once the mutation count passes a size-scaled
  /// threshold.
  void compact();

  bool contains(std::int32_t id) const noexcept;
  std::size_t size() const noexcept { return positions_.size(); }
  /// Cells in use: at most max(2^18, 4 × objects at the last build,
  /// rebuild or compaction), however far apart the objects are.
  std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  }
  /// Buckets held, in use or kept for a later rebuild(): at most twice
  /// cell_count().
  std::size_t bucket_count() const noexcept { return cells_.size(); }
  std::optional<geo::Point> position(std::int32_t id) const;

  /// All objects within `radius_km` of `p` (unsorted).
  std::vector<std::int32_t> within_radius(const geo::Point& p, double radius_km) const;

  /// within_radius appending into a caller-owned buffer (not cleared) —
  /// the share-group enumerator issues one query per request per frame
  /// and reuses a single buffer across them.
  void within_radius_into(const geo::Point& p, double radius_km,
                          std::vector<std::int32_t>& out) const;

 private:
  /// Cells carry the position next to the id so distance checks in the
  /// query loops are straight array reads (no hash lookup per candidate).
  struct CellEntry {
    std::int32_t id;
    geo::Point position;
  };

  /// Open-addressing id -> position table (linear probing, at most half
  /// full, backward-shift deletion) over every int32 id. clear() keeps
  /// the slots, so refilling it to an earlier size allocates nothing.
  class PositionTable {
   public:
    std::size_t size() const noexcept { return size_; }
    const geo::Point* find(std::int32_t id) const noexcept;
    /// Inserts `id` or moves it to `position`.
    void insert_or_assign(std::int32_t id, geo::Point position);
    /// Removes `id`; no-op when absent.
    void erase(std::int32_t id) noexcept;
    void clear() noexcept;
    void reserve(std::size_t count);
    /// Every (id, position), in slot order.
    std::vector<CellEntry> entries() const;

   private:
    /// Occupancy is kept beside the entry, not as a reserved id, so every
    /// int32 is a valid key.
    struct Slot {
      CellEntry entry;
      bool used = false;
    };
    std::size_t slot_of(std::int32_t id) const noexcept;
    void grow(std::size_t capacity);

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  SpatialGrid(geo::Rect bounds, double cell_km, std::size_t points);

  /// Sets bounds_, cell_km_ (the requested cell, widened to fit the cap)
  /// and cols_/rows_.
  void set_geometry(geo::Rect bounds, std::size_t points);
  /// set_geometry, then allocates empty cells.
  void reset_geometry(geo::Rect bounds, std::size_t points);

  double requested_cell_km_;
  geo::Rect bounds_;
  double cell_km_ = 0.0;
  int cols_ = 1;
  int rows_ = 1;
  /// At least cell_count() buckets, only those in use non-empty.
  /// rebuild() keeps up to twice cell_count() so their capacity survives
  /// a frame with a smaller bounding box, and frees the rest.
  std::vector<std::vector<CellEntry>> cells_;
  PositionTable positions_;
  std::size_t mutations_ = 0;

  std::size_t cell_index(const geo::Point& p) const noexcept;
  void erase_from_cell(std::int32_t id, std::size_t cell);
  /// Keeps cell buckets sorted by id so patched and freshly built grids
  /// emit candidates in the same order (bulk ctors append ascending ids).
  void insert_into_cell(std::size_t cell, std::int32_t id, geo::Point position);
  void note_mutation();
};

}  // namespace o2o::index
