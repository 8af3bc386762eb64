#include "index/spatial_grid.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace o2o::index {

SpatialGrid::SpatialGrid(geo::Rect bounds, double cell_km) : SpatialGrid(bounds, cell_km, 0) {}

SpatialGrid::SpatialGrid(geo::Rect bounds, double cell_km, std::size_t points)
    : requested_cell_km_(cell_km) {
  O2O_EXPECTS(cell_km > 0.0);
  reset_geometry(bounds, points);
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

void SpatialGrid::reset_geometry(geo::Rect bounds, std::size_t points) {
  set_geometry(bounds, points);
  cells_.assign(cell_count(), {});
}

// ---------------------------------------------------------------------------
// PositionTable
// ---------------------------------------------------------------------------

std::size_t SpatialGrid::PositionTable::slot_of(std::int32_t id) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = mix64(static_cast<std::uint32_t>(id)) & mask;
  while (slots_[slot].used && slots_[slot].entry.id != id) slot = (slot + 1) & mask;
  return slot;
}

const geo::Point* SpatialGrid::PositionTable::find(std::int32_t id) const noexcept {
  if (size_ == 0) return nullptr;
  const Slot& slot = slots_[slot_of(id)];
  return slot.used ? &slot.entry.position : nullptr;
}

void SpatialGrid::PositionTable::insert_or_assign(std::int32_t id, geo::Point position) {
  reserve(size_ + 1);
  Slot& slot = slots_[slot_of(id)];
  slot.entry = CellEntry{id, position};
  if (slot.used) return;
  slot.used = true;
  ++size_;
}

void SpatialGrid::PositionTable::erase(std::int32_t id) noexcept {
  if (size_ == 0) return;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = slot_of(id);
  if (!slots_[hole].used) return;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home slot lies cyclically in (hole, entry].
  for (std::size_t next = (hole + 1) & mask; slots_[next].used; next = (next + 1) & mask) {
    const std::size_t home = mix64(static_cast<std::uint32_t>(slots_[next].entry.id)) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole].used = false;
  --size_;
}

void SpatialGrid::PositionTable::clear() noexcept {
  for (Slot& slot : slots_) slot.used = false;
  size_ = 0;
}

void SpatialGrid::PositionTable::reserve(std::size_t count) {
  if (2 * count > slots_.size()) grow(std::bit_ceil(std::max<std::size_t>(2 * count, 16)));
}

void SpatialGrid::PositionTable::grow(std::size_t capacity) {
  const std::vector<CellEntry> live = entries();
  slots_.assign(capacity, Slot{});
  size_ = 0;
  for (const CellEntry& entry : live) insert_or_assign(entry.id, entry.position);
}

std::vector<SpatialGrid::CellEntry> SpatialGrid::PositionTable::entries() const {
  std::vector<CellEntry> live;
  live.reserve(size_);
  for (const Slot& slot : slots_) {
    if (slot.used) live.push_back(slot.entry);
  }
  return live;
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

void SpatialGrid::rebuild(std::span<const trace::Taxi> taxis) {
  // Only the buckets in use can hold entries: clear those, so the cost
  // follows this frame's and the last frame's geometry, not the widest
  // one the grid ever had.
  const std::size_t in_use = std::min(cells_.size(), cell_count());  // none before the first
  for (std::size_t cell = 0; cell < in_use; ++cell) cells_[cell].clear();
  set_geometry(padded_taxi_bounds(taxis, requested_cell_km_), taxis.size());
  if (cells_.size() < cell_count()) {
    cells_.resize(cell_count());
  } else if (cells_.size() > 2 * cell_count()) {
    // One outlier frame must not pin its wide grid for the whole run.
    cells_.resize(cell_count());
    cells_.shrink_to_fit();
  }
  positions_.clear();
  positions_.reserve(taxis.size());
  for (std::size_t i = 0; i < taxis.size(); ++i) {
    const auto key = static_cast<std::int32_t>(i);
    positions_.insert_or_assign(key, taxis[i].location);
    cells_[cell_index(taxis[i].location)].push_back(CellEntry{key, taxis[i].location});
  }
  mutations_ = 0;
}

SpatialGrid::SpatialGrid(std::span<const geo::Point> points, double cell_km)
    : SpatialGrid(padded_point_bounds(points, cell_km), cell_km, points.size()) {
  positions_.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto key = static_cast<std::int32_t>(i);
    positions_.insert_or_assign(key, points[i]);
    cells_[cell_index(points[i])].push_back(CellEntry{key, points[i]});
  }
}

SpatialGrid::SpatialGrid(std::span<const std::int32_t> ids,
                         std::span<const geo::Point> points, double cell_km)
    : SpatialGrid(padded_point_bounds(points, cell_km), cell_km, points.size()) {
  O2O_EXPECTS(ids.size() == points.size());
  positions_.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    positions_.insert_or_assign(ids[i], points[i]);
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
  const geo::Point* old = positions_.find(id);
  const std::size_t new_cell = cell_index(position);
  if (old != nullptr) {
    const std::size_t old_cell = cell_index(*old);
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
    positions_.insert_or_assign(id, position);
    note_mutation();
    return;
  }
  positions_.insert_or_assign(id, position);
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
  const geo::Point* position = positions_.find(id);
  if (position == nullptr) return;
  erase_from_cell(id, cell_index(*position));
  positions_.erase(id);
  note_mutation();
}

void SpatialGrid::compact() {
  std::vector<CellEntry> live = positions_.entries();
  // Re-bin in ascending id order so buckets come out sorted, matching a
  // fresh bulk build over the same objects.
  std::sort(live.begin(), live.end(),
            [](const CellEntry& a, const CellEntry& b) { return a.id < b.id; });
  reset_geometry(padded_bounds(std::span<const CellEntry>(live),
                               [](const CellEntry& e) { return e.position; },
                               requested_cell_km_),
                 live.size());
  for (const CellEntry& e : live) cells_[cell_index(e.position)].push_back(e);
  mutations_ = 0;
  obs::add(obs::Counter::kGridCompactions);
}

bool SpatialGrid::contains(std::int32_t id) const noexcept {
  return positions_.find(id) != nullptr;
}

std::optional<geo::Point> SpatialGrid::position(std::int32_t id) const {
  const geo::Point* position = positions_.find(id);
  if (position == nullptr) return std::nullopt;
  return *position;
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
