// Uniform spatial grid over points keyed by their span index (idle taxis,
// request pick-ups). Its one query is the radius query: it draws a
// preference build's candidate taxis, the share-group enumerator's
// candidate pairs and the RAII baseline's search area. However far apart
// the points are, the grid uses at most max(2^18, 4 × points) cells (the
// cell widens until the count fits).
//
// Storage is compressed sparse row (CSR): one flat (id, position) entry
// array, ordered by cell in row-major order and by ascending id inside a
// cell, plus cell_count() + 1 offsets into it. A counting pass fills both,
// so a grid that rebuild() refills every frame allocates only when a frame
// outgrows every earlier one. A query scans one contiguous run of entries
// per grid row it touches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/point.h"
#include "trace/fleet.h"

namespace o2o::index {

class SpatialGrid {
 public:
  /// Builds a grid over a taxi snapshot, keyed by **span index** (not
  /// `Taxi::id`), so `within_radius` results index straight back into the
  /// span. Bounds are the bounding box of the taxi locations padded by one
  /// cell; an empty span gets a unit box.
  SpatialGrid(std::span<const trace::Taxi> taxis, double cell_km);

  /// Builds a grid over raw points, keyed by span index (one point per
  /// request pick-up in the share-group enumerator). Same bounds policy as
  /// the taxi constructor.
  SpatialGrid(std::span<const geo::Point> points, double cell_km);

  /// Builds a grid over raw points, keyed by span index, with the
  /// caller's `bounds`; points outside are clamped to edge cells.
  SpatialGrid(geo::Rect bounds, double cell_km, std::span<const geo::Point> points);

  /// Makes this grid what the taxi constructor would build over `taxis`
  /// with the grid's requested cell size, reusing its arrays.
  void rebuild(std::span<const trace::Taxi> taxis);

  /// Makes this grid what the point constructor would build over `points`
  /// with `cell_km`, reusing its arrays.
  void rebuild(std::span<const geo::Point> points, double cell_km);

  std::size_t size() const noexcept { return entries_.size(); }
  /// Cells in use: at most max(2^18, 4 × points).
  std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  }

  /// All objects within `radius_km` of `p`, in row-major cell order and by
  /// ascending id inside a cell.
  std::vector<std::int32_t> within_radius(const geo::Point& p, double radius_km) const;

  /// within_radius appending into a caller-owned buffer (not cleared), so
  /// a caller that queries once per request reuses one buffer.
  void within_radius_into(const geo::Point& p, double radius_km,
                          std::vector<std::int32_t>& out) const;

 private:
  /// The position sits next to the id, so a query's distance checks are
  /// straight array reads.
  struct Entry {
    geo::Point position;
    std::int32_t id;
  };

  /// Sets the geometry for `count` points inside `bounds`, then places
  /// location(i) for every i in [0, count) with a counting pass.
  template <typename Location>
  void fill(geo::Rect bounds, std::size_t count, Location location);
  /// Sets bounds_, cell_km_ (the requested cell, widened to fit the cap)
  /// and cols_/rows_.
  void set_geometry(geo::Rect bounds, std::size_t points);
  std::size_t cell_index(const geo::Point& p) const noexcept;

  double requested_cell_km_;
  geo::Rect bounds_;
  double cell_km_ = 0.0;
  int cols_ = 1;
  int rows_ = 1;
  /// Cell c holds entries_[cell_start_[c], cell_start_[c + 1]).
  std::vector<std::uint32_t> cell_start_;
  std::vector<Entry> entries_;
};

}  // namespace o2o::index
