#include "packing/group_enum.h"

#include <algorithm>
#include <bit>

#include "util/contracts.h"
#include "util/simd.h"

namespace o2o::packing {

namespace {

constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

/// Fibonacci hash of an id onto a table of 2^(64 - shift) slots.
std::size_t id_slot(trace::RequestId id, int shift) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) * 0x9e3779b97f4a7c15ull) >>
      shift);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_point(geo::Point a, geo::Point b) { return same_bits(a.x, b.x) && same_bits(a.y, b.y); }

}  // namespace

bool GroupCache::IdTable::build(std::span<const trace::Request> requests) {
  const std::size_t n = requests.size();
  std::size_t capacity = 16;
  int shift = 60;
  while (capacity < 2 * n) {
    capacity *= 2;
    --shift;
  }
  slots_.assign(capacity, kEmptySlot);
  shift_ = shift;
  const std::size_t mask = capacity - 1;
  bool unique = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::uint32_t>(requests[i].id);
    std::size_t slot = id_slot(requests[i].id, shift);
    while (slots_[slot] != kEmptySlot && static_cast<std::uint32_t>(slots_[slot] >> 32) != id) {
      slot = (slot + 1) & mask;
    }
    if (slots_[slot] != kEmptySlot) {
      unique = false;  // a repeated id keeps its first index
      continue;
    }
    slots_[slot] = (static_cast<std::uint64_t>(id) << 32) | i;
  }
  return unique;
}

std::size_t GroupCache::IdTable::find(trace::RequestId id) const {
  if (slots_.empty()) return kNoIndex;
  const std::size_t mask = slots_.size() - 1;
  const auto key = static_cast<std::uint32_t>(id);
  for (std::size_t slot = id_slot(id, shift_);; slot = (slot + 1) & mask) {
    const std::uint64_t word = slots_[slot];
    if (word == kEmptySlot) return kNoIndex;
    if (static_cast<std::uint32_t>(word >> 32) == key) {
      return static_cast<std::size_t>(word & 0xffffffffu);
    }
  }
}

void GroupCache::clear() {
  last_.clear();
  last_ids_.clear();
  groups_.clear();
}

const GroupCache::Frame& GroupCache::begin_frame(std::span<const trace::Request> requests,
                                                 const GroupOptions& options, int taxi_seats,
                                                 const geo::DistanceOracle* oracle) {
  if (!bound_ || !same_bits(theta_, options.detour_threshold_km) ||
      require_saving_ != options.require_saving ||
      max_group_size_ != options.max_group_size || taxi_seats_ != taxi_seats ||
      !same_bits(pickup_radius_km_, options.pickup_radius_km) || oracle_ != oracle) {
    if (bound_) ++stats_.flushes;
    clear();
    theta_ = options.detour_threshold_km;
    require_saving_ = options.require_saving;
    max_group_size_ = options.max_group_size;
    taxi_seats_ = taxi_seats;
    pickup_radius_km_ = options.pickup_radius_km;
    oracle_ = oracle;
    bound_ = true;
  }
  requests_ = requests;
  frame_unique_ = frame_ids_.build(requests);
  classify(requests);
  return frame_;
}

void GroupCache::classify(std::span<const trace::Request> requests) {
  const std::size_t n = requests.size();
  frame_.clean.assign(n, 0);
  frame_.churn.clear();
  remap_.assign(last_.size(), kAbsent);
  if (frame_unique_ && !last_.empty()) {
    // Requests the last enumeration held with the same content, in frame
    // order, with their last index.
    struct Match {
      std::uint32_t index;
      std::uint32_t last;
    };
    std::vector<Match> matched;
    matched.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const trace::Request& request = requests[i];
      const std::size_t p = last_ids_.find(request.id);
      if (p == kNoIndex) continue;
      const Snapshot& was = last_[p];
      if (was.seats != request.seats || !same_point(was.pickup, request.pickup) ||
          !same_point(was.dropoff, request.dropoff)) {
        continue;
      }
      matched.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(p)});
    }
    // Clean = the longest run of matches whose last indices increase
    // (patience sorting): the largest set that kept its relative order.
    // A FIFO queue keeps every match, so this is one pass of appends.
    std::vector<std::uint32_t> tails;  ///< match position ending each run length
    std::vector<std::uint32_t> link(matched.size());  ///< predecessor in its run
    for (std::uint32_t k = 0; k < matched.size(); ++k) {
      const auto it = std::lower_bound(
          tails.begin(), tails.end(), matched[k].last,
          [&](std::uint32_t pos, std::uint32_t last) { return matched[pos].last < last; });
      link[k] = it == tails.begin() ? kAbsent : *(it - 1);
      if (it == tails.end()) {
        tails.push_back(k);
      } else {
        *it = k;
      }
    }
    for (std::uint32_t k = tails.empty() ? kAbsent : tails.back(); k != kAbsent; k = link[k]) {
      frame_.clean[matched[k].index] = 1;
      remap_[matched[k].last] = matched[k].index;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!frame_.clean[i]) frame_.churn.push_back(static_cast<std::uint32_t>(i));
  }
}

double GroupCache::last_direct(std::size_t index) const {
  O2O_EXPECTS(index < frame_.clean.size() && frame_.clean[index] != 0);
  return last_[last_ids_.find(requests_[index].id)].direct_km;
}

std::size_t GroupCache::replay(std::vector<ShareGroup>& out) {
  out.clear();
  out.reserve(groups_.size());
  std::size_t pairs = 0;
  std::size_t members[MemberList::kCapacity];
  for (const ShareGroup& group : groups_) {
    const std::size_t count = group.member_indices.size();
    std::size_t m = 0;
    for (; m < count; ++m) {
      const std::uint32_t to = remap_[group.member_indices[m]];
      if (to == kAbsent) break;
      members[m] = to;
    }
    if (m < count) continue;
    out.push_back(group);
    out.back().member_indices.assign(members, count);
    if (count == 2) ++pairs;
  }
  stats_.hits += out.size();
  return pairs;
}

const index::SpatialGrid& GroupCache::pickup_grid(std::span<const geo::Point> pickups,
                                                  double cell_km) {
  if (grid_) {
    grid_->rebuild(pickups, cell_km);
  } else {
    grid_.emplace(pickups, cell_km);
  }
  return *grid_;
}

void GroupCache::commit(std::span<const ShareGroup> groups, std::span<const double> direct,
                        std::size_t evaluations) {
  O2O_EXPECTS(bound_ && direct.size() == requests_.size());
  stats_.stores += evaluations;
  if (!frame_unique_) {
    // Replay finds requests by id, so a frame with a repeated id leaves
    // nothing to replay from.
    last_.clear();
    last_ids_.clear();
    groups_.clear();
    return;
  }
  last_.resize(requests_.size());
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    const trace::Request& request = requests_[i];
    last_[i] = {request.id, request.seats, request.pickup, request.dropoff, direct[i]};
  }
  std::swap(last_ids_, frame_ids_);
  groups_.assign(groups.begin(), groups.end());
  requests_ = {};
}

FilterStats cone_prune_pairs(std::span<const trace::Request> requests,
                             std::span<const double> direct, double theta,
                             std::vector<std::uint64_t>& pair_keys) {
  FilterStats stats;
  const std::size_t count = pair_keys.size();
  if (count == 0) return stats;

  std::vector<double> pix(count), piy(count), dix(count), diy(count), pjx(count),
      pjy(count), djx(count), djy(count), bound_i(count), bound_j(count);
  for (std::size_t k = 0; k < count; ++k) {
    const auto i = static_cast<std::size_t>(pair_keys[k] >> 32);
    const auto j = static_cast<std::size_t>(pair_keys[k] & 0xffffffffu);
    pix[k] = requests[i].pickup.x;
    piy[k] = requests[i].pickup.y;
    dix[k] = requests[i].dropoff.x;
    diy[k] = requests[i].dropoff.y;
    pjx[k] = requests[j].pickup.x;
    pjy[k] = requests[j].pickup.y;
    djx[k] = requests[j].dropoff.x;
    djy[k] = requests[j].dropoff.y;
    bound_i[k] = direct[i] + theta;
    bound_j[k] = direct[j] + theta;
  }
  std::vector<std::uint8_t> keep(count, 0);
  const simd::ConeSoA soa{pix.data(), piy.data(), dix.data(), diy.data(),
                          pjx.data(), pjy.data(), djx.data(), djy.data(),
                          bound_i.data(), bound_j.data()};
  stats.kept = simd::cone_filter(soa, count, kFilterPadKm, keep.data());
  stats.rejected = count - stats.kept;
  stats.batches = simd::batch_count(count);
  stats.lanes = count;

  std::size_t write = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (keep[k]) pair_keys[write++] = pair_keys[k];
  }
  pair_keys.resize(write);
  return stats;
}

FilterStats simd_certify_pairs(std::span<const trace::Request> requests,
                               const geo::DistanceOracle& oracle,
                               std::span<const double> direct, const GroupOptions& options,
                               std::span<const std::uint64_t> pair_keys,
                               std::vector<std::uint8_t>& keep) {
  O2O_EXPECTS(options.require_saving);
  FilterStats stats;
  const std::size_t count = pair_keys.size();
  keep.assign(count, 1);
  if (count == 0) return stats;

  std::vector<double> a(count), a2(count), b(count), b2(count), c(count), c2(count),
      direct_i(count), direct_j(count);
  const bool symmetric = oracle.capabilities().symmetric_distances;
  std::vector<geo::Point> targets_p;
  std::vector<geo::Point> targets_d;

  // Keys are sorted lexicographically, so candidates sharing the first
  // member form contiguous runs -- each run resolves its legs from whole
  // oracle rows (one forward/reverse tree each on the network oracle).
  std::size_t lo = 0;
  while (lo < count) {
    const auto i = static_cast<std::size_t>(pair_keys[lo] >> 32);
    std::size_t hi = lo;
    while (hi < count && static_cast<std::size_t>(pair_keys[hi] >> 32) == i) ++hi;
    const std::size_t run = hi - lo;

    targets_p.clear();
    targets_d.clear();
    targets_p.reserve(run);
    targets_d.reserve(run);
    for (std::size_t k = lo; k < hi; ++k) {
      const auto j = static_cast<std::size_t>(pair_keys[k] & 0xffffffffu);
      targets_p.push_back(requests[j].pickup);
      targets_d.push_back(requests[j].dropoff);
      direct_i[k] = direct[i];
      direct_j[k] = direct[j];
    }
    const geo::Point pick_i = requests[i].pickup;
    const geo::Point drop_i = requests[i].dropoff;
    oracle.distances_from_into(pick_i, targets_p, a.data() + lo);
    oracle.distances_from_into(pick_i, targets_d, b2.data() + lo);
    oracle.distances_from_into(drop_i, targets_d, c.data() + lo);
    if (symmetric) {
      // D(p_j, p_i) == D(p_i, p_j) and D(d_j, d_i) == D(d_i, d_j); the
      // remaining cross leg D(p_j, d_i) flips to one forward row.
      oracle.distances_from_into(drop_i, targets_p, b.data() + lo);
      std::copy(a.begin() + static_cast<std::ptrdiff_t>(lo),
                a.begin() + static_cast<std::ptrdiff_t>(hi),
                a2.begin() + static_cast<std::ptrdiff_t>(lo));
      std::copy(c.begin() + static_cast<std::ptrdiff_t>(lo),
                c.begin() + static_cast<std::ptrdiff_t>(hi),
                c2.begin() + static_cast<std::ptrdiff_t>(lo));
    } else {
      oracle.distances_to_into(targets_p, pick_i, a2.data() + lo);
      oracle.distances_to_into(targets_p, drop_i, b.data() + lo);
      oracle.distances_to_into(targets_d, drop_i, c2.data() + lo);
    }
    lo = hi;
  }

  const simd::PairLegsSoA legs{a.data(), a2.data(),       b.data(),
                               b2.data(), c.data(),        c2.data(),
                               direct_i.data(), direct_j.data()};
  stats.kept = simd::pair_filter(legs, count, options.detour_threshold_km, kFilterPadKm,
                                 keep.data());
  stats.rejected = count - stats.kept;
  stats.batches = simd::batch_count(count);
  stats.lanes = count;
  return stats;
}

}  // namespace o2o::packing
