#include "geo/snap_memo.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "geo/road_network.h"
#include "obs/obs.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace o2o::geo {

namespace {

/// Per-shard bound on the sharded memo. Generous (a frame snapshot is
/// thousands of points, spread over all shards); on overflow the shard
/// clears and re-fills — simpler than LRU for entries this cheap.
constexpr std::size_t kSnapMemoPerShardCap = 1 << 14;

/// One direct-mapped front slot. memo_id 0 marks an empty slot; ids
/// start at 1.
struct FrontSlot {
  std::uint64_t memo_id = 0;
  std::uint64_t x_bits = 0;
  std::uint64_t y_bits = 0;
  NodeId node = kInvalidNode;
};
static_assert(sizeof(FrontSlot) == 32);

constexpr int kFrontBits = 12;  // 4,096 slots, 128 KB per snapping thread

std::atomic<std::uint64_t> next_memo_id{1};

/// The calling thread's front table, allocated on its first snap.
FrontSlot* front_table() {
  thread_local std::unique_ptr<FrontSlot[]> table;
  if (table == nullptr) table = std::make_unique<FrontSlot[]>(std::size_t{1} << kFrontBits);
  return table.get();
}

}  // namespace

SnapMemo::SnapMemo(const RoadNetwork& network, std::size_t shard_count)
    : network_(network),
      id_(next_memo_id.fetch_add(1, std::memory_order_relaxed)),
      front_salt_(mix64(id_)),
      shards_(shard_count) {
  O2O_EXPECTS(shard_count > 0);
}

std::size_t SnapMemo::KeyHash::operator()(const Key& k) const noexcept {
  return static_cast<std::size_t>(mix64(k.x_bits ^ mix64(k.y_bits)));
}

void SnapMemo::prepare_frame(std::span<const Point> points) const {
  std::lock_guard lock(prepare_mutex_);
  next_prepared_.clear();
  std::size_t carried = 0;
  for (const Point& p : points) {
    const Key key = key_of(p);
    next_prepared_.push_back(key);
    if (std::binary_search(prepared_.begin(), prepared_.end(), key)) {
      ++carried;
      continue;
    }
    (void)snap(p);
  }
  std::sort(next_prepared_.begin(), next_prepared_.end());
  next_prepared_.erase(std::unique(next_prepared_.begin(), next_prepared_.end()),
                       next_prepared_.end());
  prepared_.swap(next_prepared_);
  last_prepare_carried_ = carried;
}

NodeId SnapMemo::snap(const Point& p) const {
  const Key key = key_of(p);
  const std::uint64_t hash = mix64(key.x_bits ^ mix64(key.y_bits));
  FrontSlot& slot = front_table()[(hash ^ front_salt_) >> (64 - kFrontBits)];
  if (slot.memo_id == id_ && slot.x_bits == key.x_bits && slot.y_bits == key.y_bits) {
    obs::add(obs::Counter::kSnapHits);
    return slot.node;
  }
  const NodeId node = shared_snap(p, key, hash);
  slot = {id_, key.x_bits, key.y_bits, node};
  return node;
}

NodeId SnapMemo::shared_snap(const Point& p, const Key& key, std::uint64_t hash) const {
  Shard& shard = shards_[hash % shards_.size()];
  {
    std::shared_lock lock(shard.mutex);
    const auto it = shard.memo.find(key);
    if (it != shard.memo.end()) {
      obs::add(obs::Counter::kSnapHits);
      return it->second;
    }
  }
  obs::add(obs::Counter::kSnapMisses);
  const NodeId node = network_.nearest_node(p);
  std::unique_lock lock(shard.mutex);
  if (shard.memo.size() >= kSnapMemoPerShardCap) shard.memo.clear();
  shard.memo.emplace(key, node);
  return node;
}

}  // namespace o2o::geo
