#include "packing/group_enum.h"

#include <algorithm>
#include <bit>

#include "obs/obs.h"
#include "util/contracts.h"
#include "util/simd.h"

namespace o2o::packing {

namespace {

constexpr std::uint64_t kSweepPeriod = 16;  ///< frames between GC sweeps
constexpr std::uint64_t kMaxAgeFrames = 4;  ///< unused entries older than this die
/// Below this many entries the size-triggered sweep never fires (the
/// periodic one still caps idle growth); above it, doubling past the
/// live count at the last sweep forces one.
constexpr std::size_t kSweepSizeFloor = 4096;

}  // namespace

std::size_t GroupCache::KeyHash::operator()(const Key& key) const noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const trace::RequestId id : key.ids) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) +
         0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return static_cast<std::size_t>(h);
}

GroupCache::Key GroupCache::key_of(const std::size_t* members, std::size_t count) const {
  Key key{{trace::kInvalidRequest, trace::kInvalidRequest, trace::kInvalidRequest}};
  for (std::size_t m = 0; m < count; ++m) {
    O2O_EXPECTS(members[m] < frame_ids_.size());
    key.ids[m] = frame_ids_[members[m]];
  }
  return key;
}

namespace {

constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

/// Fibonacci hash of an id onto a table of 2^(64 - shift) slots.
std::size_t id_slot(trace::RequestId id, int shift) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) * 0x9e3779b97f4a7c15ull) >>
      shift);
}

}  // namespace

void GroupCache::index_frame_ids() {
  const std::size_t n = frame_ids_.size();
  std::size_t capacity = 16;
  int shift = 60;
  while (capacity < 2 * n) {
    capacity *= 2;
    --shift;
  }
  index_slots_.assign(capacity, kEmptySlot);
  index_shift_ = shift;
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::uint32_t>(frame_ids_[i]);
    std::size_t slot = id_slot(frame_ids_[i], shift);
    // A repeated id takes its last index, as the id-state pass does.
    while (index_slots_[slot] != kEmptySlot &&
           static_cast<std::uint32_t>(index_slots_[slot] >> 32) != id) {
      slot = (slot + 1) & mask;
    }
    index_slots_[slot] = (static_cast<std::uint64_t>(id) << 32) | i;
  }
}

std::size_t GroupCache::EntryMap::find_slot(const Key& key) const {
  if (keys_.empty()) return npos;
  std::size_t slot = KeyHash{}(key)&mask_;
  while (true) {
    if (state_[slot] == 0) return npos;
    if (state_[slot] == 1 && keys_[slot] == key) return slot;
    slot = (slot + 1) & mask_;
  }
}

GroupCache::Entry& GroupCache::EntryMap::put(const Key& key) {
  reserve_for_insert();
  std::size_t slot = KeyHash{}(key)&mask_;
  std::size_t target = npos;  ///< first tombstone passed, if any
  while (true) {
    if (state_[slot] == 0) break;
    if (state_[slot] == 1 && keys_[slot] == key) {
      entries_[slot] = Entry{};
      return entries_[slot];
    }
    if (state_[slot] == 2 && target == npos) target = slot;
    slot = (slot + 1) & mask_;
  }
  if (target != npos) {
    slot = target;
    --tombs_;
  }
  keys_[slot] = key;
  state_[slot] = 1;
  ++size_;
  entries_[slot] = Entry{};
  return entries_[slot];
}

void GroupCache::EntryMap::erase_slot(std::size_t slot) {
  state_[slot] = 2;
  --size_;
  ++tombs_;
}

std::size_t GroupCache::EntryMap::sweep(std::uint64_t epoch, std::uint64_t max_age) {
  std::size_t dropped = 0;
  for (std::size_t slot = 0; slot < state_.size(); ++slot) {
    if (state_[slot] == 1 && entries_[slot].last_used + max_age < epoch) {
      erase_slot(slot);
      ++dropped;
    }
  }
  // Rebuild once tombstones start lengthening every probe chain.
  if (!keys_.empty() && tombs_ * 4 > keys_.size()) rehash(keys_.size());
  return dropped;
}

void GroupCache::EntryMap::clear() {
  keys_.clear();
  state_.clear();
  entries_.clear();
  size_ = 0;
  tombs_ = 0;
  mask_ = 0;
}

void GroupCache::EntryMap::rehash(std::size_t capacity) {
  while (capacity < (size_ + 1) * 2) capacity *= 2;
  std::vector<Key> old_keys = std::move(keys_);
  std::vector<std::uint8_t> old_state = std::move(state_);
  std::vector<Entry> old_entries = std::move(entries_);
  keys_.assign(capacity, Key{});
  state_.assign(capacity, 0);
  entries_.assign(capacity, Entry{});
  mask_ = capacity - 1;
  tombs_ = 0;
  for (std::size_t i = 0; i < old_state.size(); ++i) {
    if (old_state[i] != 1) continue;
    std::size_t slot = KeyHash{}(old_keys[i]) & mask_;
    while (state_[slot] != 0) slot = (slot + 1) & mask_;
    keys_[slot] = old_keys[i];
    state_[slot] = 1;
    entries_[slot] = old_entries[i];
  }
}

void GroupCache::EntryMap::reserve_for_insert() {
  if (keys_.empty()) {
    constexpr std::size_t kInitialCapacity = 1024;
    keys_.assign(kInitialCapacity, Key{});
    state_.assign(kInitialCapacity, 0);
    entries_.assign(kInitialCapacity, Entry{});
    mask_ = kInitialCapacity - 1;
    return;
  }
  // Keep the load factor (full + tombstone slots) under 3/4.
  if ((size_ + tombs_ + 1) * 4 >= keys_.size() * 3) rehash(keys_.size() * 2);
}

void GroupCache::clear() {
  entries_.clear();
  ids_.clear();
  index_slots_.clear();
  live_after_sweep_ = 0;
  reset_candidates();
}

void GroupCache::reset_candidates() {
  // ids_ may outlive this reset (verdict entries stay valid); only the
  // candidate payload is voided.
  for (auto& [id, state] : ids_) {
    state.cand.clear();
    state.cand.shrink_to_fit();
    state.cand_epoch = 0;
  }
  cand_grid_.reset();
  cand_prev_ids_.clear();
  cand_radius_km_ = std::numeric_limits<double>::quiet_NaN();
  cand_direct_valid_ = false;
  cand_synced_epoch_ = 0;
}

void GroupCache::begin_frame(std::span<const trace::Request> requests,
                             const GroupOptions& options, int taxi_seats,
                             const geo::DistanceOracle* oracle) {
  const double theta = options.detour_threshold_km;
  if (!bound_ || theta_ != theta || require_saving_ != options.require_saving ||
      max_group_size_ != options.max_group_size || taxi_seats_ != taxi_seats ||
      oracle_ != oracle) {
    if (bound_) ++stats_.flushes;
    clear();
    theta_ = theta;
    require_saving_ = options.require_saving;
    max_group_size_ = options.max_group_size;
    taxi_seats_ = taxi_seats;
    oracle_ = oracle;
    bound_ = true;
  }
  ++epoch_;
  requests_ = requests;
  frame_ids_.resize(requests.size());
  frame_stamps_.resize(requests.size());
  frame_states_.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const trace::Request& request = requests[i];
    auto [it, inserted] = ids_.try_emplace(request.id);
    IdState& state = it->second;
    if (inserted || state.pickup != request.pickup || state.dropoff != request.dropoff ||
        state.seats != request.seats) {
      state.pickup = request.pickup;
      state.dropoff = request.dropoff;
      state.seats = request.seats;
      state.stamp = ++stamp_counter_;
      state.stamp_epoch = epoch_;
    }
    state.last_seen = epoch_;
    frame_ids_[i] = request.id;
    frame_stamps_[i] = state.stamp;
    frame_states_[i] = &state;
  }
  index_frame_ids();
  // GC sweep: periodic, plus a size trigger so sustained streaming churn
  // between periodic sweeps cannot grow the entry map without bound.
  const std::size_t size_trigger =
      std::max(kSweepSizeFloor, 2 * live_after_sweep_);
  if (epoch_ % kSweepPeriod == 0 || entries_.size() >= size_trigger) {
    const std::size_t dropped = entries_.sweep(epoch_, kMaxAgeFrames);
    stats_.invalidated += dropped;
    stats_.evictions += dropped;
    obs::add(obs::Counter::kCacheEvictions, dropped);
    live_after_sweep_ = entries_.size();
    for (auto it = ids_.begin(); it != ids_.end();) {
      if (it->second.last_seen + kMaxAgeFrames < epoch_) {
        it = ids_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

const GroupCache::CandidateFrame& GroupCache::begin_candidates(double pickup_radius_km) {
  O2O_EXPECTS(bound_);
  obs::StageTimer stage(obs::Stage::kGridPatch);
  const std::size_t n = requests_.size();
  // The pickup-radius cut is part of the emission predicate but not of
  // the verdict fingerprint, so it gets its own: a change voids every
  // persisted list (verdict entries survive untouched).
  const bool same_radius = std::bit_cast<std::uint64_t>(cand_radius_km_) ==
                           std::bit_cast<std::uint64_t>(pickup_radius_km);
  if (!same_radius) {
    reset_candidates();
    cand_radius_km_ = pickup_radius_km;
  }
  cand_frame_.churn.clear();
  cand_frame_.clean.assign(n, 0);
  // Replay needs an unbroken chain: lists were synced exactly one frame
  // ago (a skipped store — tiny frame, dense-path frame — cold-starts the
  // next one, which is sound and self-heals).
  cand_frame_.warm = same_radius && cand_synced_epoch_ + 1 == epoch_;
  cand_frame_.direct_warm = cand_frame_.warm && cand_direct_valid_;
  for (std::size_t i = 0; i < n; ++i) {
    const IdState& state = *frame_states_[i];
    const bool clean = cand_frame_.warm && state.stamp_epoch != epoch_ &&
                       state.cand_epoch + 1 == epoch_;
    if (clean) {
      cand_frame_.clean[i] = 1;
    } else {
      cand_frame_.churn.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // Patch the persistent pickup grid from the frame delta: departures
  // out, arrivals in, moved pick-ups relocated.
  if (cand_grid_) {
    for (const trace::RequestId id : cand_prev_ids_) {
      if (index_of(id) == kNoIndex) cand_grid_->remove(id);
    }
    for (const trace::Request& request : requests_) {
      const auto pos = cand_grid_->position(request.id);
      if (!pos) {
        cand_grid_->insert(request.id, request.pickup);
      } else if (*pos != request.pickup) {
        cand_grid_->move(request.id, request.pickup);
      }
    }
  }
  cand_prev_ids_.clear();
  cand_prev_ids_.reserve(n);
  for (const trace::Request& request : requests_) cand_prev_ids_.push_back(request.id);
  return cand_frame_;
}

double GroupCache::persisted_direct(std::size_t index) const {
  O2O_EXPECTS(index < frame_states_.size());
  return frame_states_[index]->direct_km;
}

std::span<const std::uint64_t> GroupCache::neighbor_list(std::size_t index) const {
  O2O_EXPECTS(index < frame_states_.size());
  return frame_states_[index]->cand;
}

std::size_t GroupCache::index_of(trace::RequestId id) const {
  if (index_slots_.empty()) return kNoIndex;
  const std::size_t mask = index_slots_.size() - 1;
  const auto key = static_cast<std::uint32_t>(id);
  for (std::size_t slot = id_slot(id, index_shift_);; slot = (slot + 1) & mask) {
    const std::uint64_t word = index_slots_[slot];
    if (word == kEmptySlot) return kNoIndex;
    if (static_cast<std::uint32_t>(word >> 32) == key) {
      return static_cast<std::size_t>(word & 0xffffffffu);
    }
  }
}

void GroupCache::store_candidates(std::span<const std::uint64_t> keys,
                                  std::span<const std::uint8_t> flags,
                                  std::span<const double> direct, bool direct_valid,
                                  double cell_km) {
  O2O_EXPECTS(bound_ && keys.size() == flags.size());
  O2O_EXPECTS(direct.size() == requests_.size());
  const std::size_t n = requests_.size();
  // Churn ids rebuild from scratch; clean ids keep their clean-clean
  // entries (flags included — a recorded certificate stays a proof) and
  // drop absent or churn neighbors, whose fresh truth arrives below.
  for (const std::uint32_t idx : cand_frame_.churn) frame_states_[idx]->cand.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (!cand_frame_.clean[i]) continue;
    auto& cand = frame_states_[i]->cand;
    std::size_t write = 0;
    for (const std::uint64_t packed : cand) {
      const auto id = static_cast<trace::RequestId>(packed >> 1);
      const std::size_t j = index_of(id);
      if (j == kNoIndex || !cand_frame_.clean[j]) continue;
      cand[write++] = packed;
    }
    cand.resize(write);
  }
  // Append both sides of every churn pair. keys are deduplicated and a
  // churn pair always has a churn member, so no entry lands twice.
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const auto i = static_cast<std::size_t>(keys[k] >> 32);
    const auto j = static_cast<std::size_t>(keys[k] & 0xffffffffu);
    const std::uint64_t flag = flags[k] != 0 ? 1u : 0u;
    frame_states_[i]->cand.push_back(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(frame_ids_[j])) << 1) |
        flag);
    frame_states_[j]->cand.push_back(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(frame_ids_[i])) << 1) |
        flag);
  }
  for (std::size_t i = 0; i < n; ++i) {
    IdState& state = *frame_states_[i];
    state.cand_epoch = epoch_;
    if (direct_valid) state.direct_km = direct[i];
  }
  cand_direct_valid_ = direct_valid;
  cand_synced_epoch_ = epoch_;
  if (!cand_grid_ && n > 0) {
    std::vector<std::int32_t> ids(n);
    std::vector<geo::Point> pickups(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = requests_[i].id;
      pickups[i] = requests_[i].pickup;
    }
    cand_grid_.emplace(ids, pickups, cell_km);
  }
}

GroupCache::Verdict GroupCache::try_get(const std::size_t* members, std::size_t count,
                                        ShareGroup& group) {
  O2O_EXPECTS(bound_ && count >= 2 && count <= 3);
  const std::size_t slot = entries_.find_slot(key_of(members, count));
  if (slot == EntryMap::npos) return Verdict::kMiss;
  Entry& entry = entries_.entry_at(slot);
  for (std::size_t m = 0; m < count; ++m) {
    // Every current-frame index was stamped in begin_frame, so the stamp
    // compare alone decides staleness (no id lookup).
    if (frame_stamps_[members[m]] != entry.stamps[m]) {
      entries_.erase_slot(slot);
      ++stats_.invalidated;
      return Verdict::kMiss;
    }
  }
  entry.last_used = epoch_;
  ++stats_.hits;
  if (!entry.feasible) return Verdict::kInfeasible;
  group.member_indices.assign(members, count);
  group.pooled_length_km = entry.pooled_length_km;
  group.direct_sum_km = entry.direct_sum_km;
  group.max_detour_km = entry.max_detour_km;
  group.member_direct_km = entry.member_direct;
  return Verdict::kFeasible;
}

void GroupCache::store(const std::size_t* members, std::size_t count, bool feasible,
                       const ShareGroup& group) {
  O2O_EXPECTS(bound_ && count >= 2 && count <= 3);
  Entry& entry = entries_.put(key_of(members, count));
  for (std::size_t m = 0; m < count; ++m) {
    entry.stamps[m] = frame_stamps_[members[m]];
  }
  entry.feasible = feasible;
  entry.last_used = epoch_;
  if (feasible) {
    entry.pooled_length_km = group.pooled_length_km;
    entry.direct_sum_km = group.direct_sum_km;
    entry.max_detour_km = group.max_detour_km;
    entry.member_direct = group.member_direct_km;
  }
  ++stats_.stores;
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
