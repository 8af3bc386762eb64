#include "index/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "util/contracts.h"

namespace o2o::index {

SpatialGrid::SpatialGrid(geo::Rect bounds, double cell_km) : SpatialGrid(bounds, cell_km, 0) {}

SpatialGrid::SpatialGrid(geo::Rect bounds, double cell_km, std::size_t points)
    : requested_cell_km_(cell_km) {
  O2O_EXPECTS(cell_km > 0.0);
  reset_geometry(bounds, points);
}

void SpatialGrid::reset_geometry(geo::Rect bounds, std::size_t points) {
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
  cells_.assign(static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_), {});
}

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

geo::Rect padded_point_bounds(std::span<const geo::Point> points, double pad_km) {
  if (points.empty()) return geo::Rect{{0.0, 0.0}, {1.0, 1.0}};
  geo::Rect box{points.front(), points.front()};
  for (const geo::Point& p : points) {
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

geo::Rect padded_taxi_bounds(std::span<const trace::Taxi> taxis, double pad_km) {
  std::vector<geo::Point> points;
  points.reserve(taxis.size());
  for (const trace::Taxi& taxi : taxis) points.push_back(taxi.location);
  return padded_point_bounds(points, pad_km);
}

}  // namespace

SpatialGrid::SpatialGrid(std::span<const trace::Taxi> taxis, double cell_km)
    : SpatialGrid(padded_taxi_bounds(taxis, cell_km), cell_km, taxis.size()) {
  positions_.reserve(taxis.size());
  for (std::size_t i = 0; i < taxis.size(); ++i) {
    const auto key = static_cast<std::int32_t>(i);
    positions_.emplace(key, taxis[i].location);
    cells_[cell_index(taxis[i].location)].push_back(CellEntry{key, taxis[i].location});
  }
}

SpatialGrid::SpatialGrid(std::span<const geo::Point> points, double cell_km)
    : SpatialGrid(padded_point_bounds(points, cell_km), cell_km, points.size()) {
  positions_.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto key = static_cast<std::int32_t>(i);
    positions_.emplace(key, points[i]);
    cells_[cell_index(points[i])].push_back(CellEntry{key, points[i]});
  }
}

SpatialGrid::SpatialGrid(std::span<const std::int32_t> ids,
                         std::span<const geo::Point> points, double cell_km)
    : SpatialGrid(padded_point_bounds(points, cell_km), cell_km, points.size()) {
  O2O_EXPECTS(ids.size() == points.size());
  positions_.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    positions_.emplace(ids[i], points[i]);
    cells_[cell_index(points[i])].push_back(CellEntry{ids[i], points[i]});
  }
  // Caller-supplied ids carry no order guarantee; sort each bucket so
  // queries emit in the same id order as the patched grids.
  for (auto& bucket : cells_) {
    std::sort(bucket.begin(), bucket.end(),
              [](const CellEntry& a, const CellEntry& b) { return a.id < b.id; });
  }
}

std::size_t SpatialGrid::cell_index(const geo::Point& p) const noexcept {
  const int cx = cell_coord(p.x - bounds_.lo.x, cell_km_, cols_);
  const int cy = cell_coord(p.y - bounds_.lo.y, cell_km_, rows_);
  return static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols_) +
         static_cast<std::size_t>(cx);
}

void SpatialGrid::erase_from_cell(std::int32_t id, std::size_t cell) {
  auto& bucket = cells_[cell];
  bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                              [id](const CellEntry& e) { return e.id == id; }),
               bucket.end());
}

void SpatialGrid::insert_into_cell(std::size_t cell, std::int32_t id,
                                   geo::Point position) {
  auto& bucket = cells_[cell];
  const auto it = std::lower_bound(
      bucket.begin(), bucket.end(), id,
      [](const CellEntry& e, std::int32_t key) { return e.id < key; });
  bucket.insert(it, CellEntry{id, position});
}

void SpatialGrid::note_mutation() {
  ++mutations_;
  obs::add(obs::Counter::kGridPatches);
  // Drifted objects clamp into edge cells, so after enough churn the
  // edge buckets fatten and queries slow down; a periodic re-bin keeps
  // the amortized patch cost O(1) while restoring fresh-build layout.
  if (mutations_ >= std::max<std::size_t>(256, 2 * positions_.size())) compact();
}

void SpatialGrid::upsert(std::int32_t id, geo::Point position) {
  const auto it = positions_.find(id);
  const std::size_t new_cell = cell_index(position);
  if (it != positions_.end()) {
    const std::size_t old_cell = cell_index(it->second);
    if (old_cell != new_cell) {
      erase_from_cell(id, old_cell);
      insert_into_cell(new_cell, id, position);
    } else {
      for (CellEntry& e : cells_[new_cell]) {
        if (e.id == id) {
          e.position = position;
          break;
        }
      }
    }
    it->second = position;
    note_mutation();
    return;
  }
  positions_.emplace(id, position);
  insert_into_cell(new_cell, id, position);
  note_mutation();
}

void SpatialGrid::insert(std::int32_t id, geo::Point position) {
  O2O_EXPECTS(!contains(id));
  upsert(id, position);
}

void SpatialGrid::move(std::int32_t id, geo::Point position) {
  O2O_EXPECTS(contains(id));
  upsert(id, position);
}

void SpatialGrid::remove(std::int32_t id) {
  const auto it = positions_.find(id);
  if (it == positions_.end()) return;
  erase_from_cell(id, cell_index(it->second));
  positions_.erase(it);
  note_mutation();
}

void SpatialGrid::compact() {
  std::vector<std::pair<std::int32_t, geo::Point>> live(positions_.begin(),
                                                        positions_.end());
  // Re-bin in ascending id order so buckets come out sorted, matching a
  // fresh bulk build over the same objects.
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<geo::Point> points;
  points.reserve(live.size());
  for (const auto& [id, p] : live) points.push_back(p);
  reset_geometry(padded_point_bounds(points, requested_cell_km_), points.size());
  for (const auto& [id, p] : live) {
    cells_[cell_index(p)].push_back(CellEntry{id, p});
  }
  mutations_ = 0;
  obs::add(obs::Counter::kGridCompactions);
}

bool SpatialGrid::contains(std::int32_t id) const noexcept {
  return positions_.find(id) != positions_.end();
}

std::optional<geo::Point> SpatialGrid::position(std::int32_t id) const {
  const auto it = positions_.find(id);
  if (it == positions_.end()) return std::nullopt;
  return it->second;
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
  for (int y = lo_y; y <= hi_y; ++y) {
    for (int x = lo_x; x <= hi_x; ++x) {
      for (const CellEntry& e :
           cells_[static_cast<std::size_t>(y) * static_cast<std::size_t>(cols_) +
                  static_cast<std::size_t>(x)]) {
        if (geo::squared_distance(p, e.position) <= r_sq) out.push_back(e.id);
      }
    }
  }
}

}  // namespace o2o::index
