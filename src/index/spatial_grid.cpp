#include "index/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.h"

namespace o2o::index {

namespace {

/// Cell coordinate of a km offset from the grid origin, clamped to
/// [0, count) while still a double: a far-off point, an infinite query
/// radius or a NaN never reaches the int conversion out of range.
int cell_coord(double offset_km, double cell_km, int count) noexcept {
  const double cell = offset_km / cell_km;
  if (!(cell >= 1.0)) return 0;  // also catches NaN
  if (cell >= static_cast<double>(count - 1)) return count - 1;
  return static_cast<int>(cell);
}

/// The padded bounding box of location(item) over `items`.
template <typename Item, typename Location>
geo::Rect padded_bounds(std::span<const Item> items, Location location, double pad_km) {
  if (items.empty()) return geo::Rect{{0.0, 0.0}, {1.0, 1.0}};
  geo::Rect box{location(items.front()), location(items.front())};
  for (const Item& item : items) {
    const geo::Point p = location(item);
    box.lo.x = std::min(box.lo.x, p.x);
    box.lo.y = std::min(box.lo.y, p.y);
    box.hi.x = std::max(box.hi.x, p.x);
    box.hi.y = std::max(box.hi.y, p.y);
  }
  // Far from the origin a coordinate's ulp exceeds the pad, which is
  // then absorbed; step one ulp outward instead so no side of the box
  // ever has zero extent.
  const auto widen = [pad_km](double& lo, double& hi) {
    lo -= pad_km;
    hi += pad_km;
    if (!(lo < hi)) {
      lo = std::nextafter(lo, -std::numeric_limits<double>::infinity());
      hi = std::nextafter(hi, std::numeric_limits<double>::infinity());
    }
  };
  widen(box.lo.x, box.hi.x);
  widen(box.lo.y, box.hi.y);
  return box;
}

geo::Rect padded_point_bounds(std::span<const geo::Point> points, double pad_km) {
  return padded_bounds(points, [](const geo::Point& p) { return p; }, pad_km);
}

geo::Rect padded_taxi_bounds(std::span<const trace::Taxi> taxis, double pad_km) {
  return padded_bounds(taxis, [](const trace::Taxi& taxi) { return taxi.location; }, pad_km);
}

}  // namespace

SpatialGrid::SpatialGrid(std::span<const trace::Taxi> taxis, double cell_km)
    : requested_cell_km_(cell_km) {
  O2O_EXPECTS(cell_km > 0.0);
  rebuild(taxis);
}

SpatialGrid::SpatialGrid(std::span<const geo::Point> points, double cell_km)
    : requested_cell_km_(cell_km) {
  rebuild(points, cell_km);
}

SpatialGrid::SpatialGrid(geo::Rect bounds, double cell_km, std::span<const geo::Point> points)
    : requested_cell_km_(cell_km) {
  O2O_EXPECTS(cell_km > 0.0);
  fill(bounds, points.size(), [points](std::size_t i) { return points[i]; });
}

void SpatialGrid::rebuild(std::span<const trace::Taxi> taxis) {
  fill(padded_taxi_bounds(taxis, requested_cell_km_), taxis.size(),
       [taxis](std::size_t i) { return taxis[i].location; });
}

void SpatialGrid::rebuild(std::span<const geo::Point> points, double cell_km) {
  O2O_EXPECTS(cell_km > 0.0);
  requested_cell_km_ = cell_km;
  fill(padded_point_bounds(points, cell_km), points.size(),
       [points](std::size_t i) { return points[i]; });
}

void SpatialGrid::set_geometry(geo::Rect bounds, std::size_t points) {
  O2O_EXPECTS(bounds.width() > 0.0 && bounds.height() > 0.0);
  // Cells along one side; an extent too wide for a double gets a single
  // cell, which keeps every query exact (nothing lies beyond it).
  const auto cells_along = [](double extent, double cell) {
    return std::isfinite(extent) ? std::max(1.0, std::ceil(extent / cell)) : 1.0;
  };
  // Far-apart points would otherwise size the grid by their distance, not
  // their number: cap the cell count at max(2^18, 4 × points) by widening
  // the cell. The cap binds only beyond 512 × 512 requested cells, and
  // queries stay exact at any cell size.
  const double cap =
      static_cast<double>(std::max<std::size_t>(std::size_t{1} << 18, 4 * points));
  double cell = requested_cell_km_;
  while (cells_along(bounds.width(), cell) * cells_along(bounds.height(), cell) > cap) {
    cell *= 2.0;
  }
  bounds_ = bounds;
  cell_km_ = cell;
  cols_ = static_cast<int>(cells_along(bounds.width(), cell));
  rows_ = static_cast<int>(cells_along(bounds.height(), cell));
}

template <typename Location>
void SpatialGrid::fill(geo::Rect bounds, std::size_t count, Location location) {
  O2O_EXPECTS(count <= static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));
  set_geometry(bounds, count);
  const std::size_t cells = cell_count();
  // Counting sort, stable in span order so every cell's ids ascend: cell
  // c's count goes to cell_start_[c + 2], the prefix sum turns
  // cell_start_[c + 1] into c's first slot, and placing advances it to
  // c's end, which is c + 1's first slot.
  cell_start_.assign(cells + 2, 0);
  for (std::size_t i = 0; i < count; ++i) ++cell_start_[cell_index(location(i)) + 2];
  for (std::size_t c = 2; c < cells + 2; ++c) cell_start_[c] += cell_start_[c - 1];
  entries_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const geo::Point p = location(i);
    entries_[cell_start_[cell_index(p) + 1]++] = Entry{p, static_cast<std::int32_t>(i)};
  }
  cell_start_.pop_back();
}

std::size_t SpatialGrid::cell_index(const geo::Point& p) const noexcept {
  const int cx = cell_coord(p.x - bounds_.lo.x, cell_km_, cols_);
  const int cy = cell_coord(p.y - bounds_.lo.y, cell_km_, rows_);
  return static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols_) +
         static_cast<std::size_t>(cx);
}

std::vector<std::int32_t> SpatialGrid::within_radius(const geo::Point& p,
                                                     double radius_km) const {
  std::vector<std::int32_t> ids;
  within_radius_into(p, radius_km, ids);
  return ids;
}

void SpatialGrid::within_radius_into(const geo::Point& p, double radius_km,
                                     std::vector<std::int32_t>& out) const {
  O2O_EXPECTS(radius_km >= 0.0);
  const double r_sq = radius_km * radius_km;
  const int lo_x = cell_coord(p.x - radius_km - bounds_.lo.x, cell_km_, cols_);
  const int hi_x = cell_coord(p.x + radius_km - bounds_.lo.x, cell_km_, cols_);
  const int lo_y = cell_coord(p.y - radius_km - bounds_.lo.y, cell_km_, rows_);
  const int hi_y = cell_coord(p.y + radius_km - bounds_.lo.y, cell_km_, rows_);
  // Cells lo_x..hi_x of one row are adjacent in the CSR layout, so each
  // row is a single run of entries.
  for (int y = lo_y; y <= hi_y; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * static_cast<std::size_t>(cols_);
    const Entry* entry = entries_.data() + cell_start_[row + static_cast<std::size_t>(lo_x)];
    const Entry* const end =
        entries_.data() + cell_start_[row + static_cast<std::size_t>(hi_x) + 1];
    for (; entry != end; ++entry) {
      if (geo::squared_distance(p, entry->position) <= r_sq) out.push_back(entry->id);
    }
  }
}

}  // namespace o2o::index
