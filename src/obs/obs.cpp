#include "obs/obs.h"

#include <algorithm>

#include "util/contracts.h"

namespace o2o::obs {

namespace detail {

std::atomic<TraceSink*> g_active_sink{nullptr};
// Starts at 1 so a fresh thread's bound_epoch == 0 never matches.
std::atomic<std::uint64_t> g_epoch{1};

Cells* bind_current_thread(TraceSink* sink, std::uint64_t epoch) {
  // The sink may have been deactivated between the caller's load and
  // now; re-check under the current epoch so we never register with a
  // sink on its way out.
  if (detail::g_active_sink.load(std::memory_order_acquire) != sink ||
      detail::g_epoch.load(std::memory_order_acquire) != epoch) {
    return nullptr;
  }
  return sink->register_thread();
}

}  // namespace detail

std::string_view stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::kProfileBuild: return "profile_build";
    case Stage::kComponentExtract: return "component_extract";
    case Stage::kStableMatching: return "stable_matching";
    case Stage::kBreakDispatch: return "break_dispatch";
    case Stage::kGroupEnum: return "group_enum";
    case Stage::kPacking: return "packing";
    case Stage::kEnroute: return "enroute";
    case Stage::kDispatch: return "dispatch";
    case Stage::kCandidateGen: return "candidate_gen";
    case Stage::kExactEval: return "exact_eval";
    case Stage::kIngest: return "ingest";
    case Stage::kCodec: return "codec";
    case Stage::kServiceFrame: return "service_frame";
  }
  return "unknown";
}

std::string_view counter_name(Counter counter) noexcept {
  switch (counter) {
    case Counter::kProposals: return "proposals";
    case Counter::kRejections: return "rejections";
    case Counter::kBreakAttempts: return "break_attempts";
    case Counter::kBreakSuccesses: return "break_successes";
    case Counter::kGridCandidates: return "grid_candidates";
    case Counter::kGridCandidatesPruned: return "grid_candidates_pruned";
    case Counter::kPreferencePairs: return "preference_pairs";
    case Counter::kOracleTreeHits: return "oracle_tree_hits";
    case Counter::kOracleTreeMisses: return "oracle_tree_misses";
    case Counter::kSnapHits: return "snap_hits";
    case Counter::kSnapMisses: return "snap_misses";
    case Counter::kPairCandidates: return "pair_candidates";
    case Counter::kTripleCandidates: return "triple_candidates";
    case Counter::kFeasibleGroups: return "feasible_groups";
    case Counter::kPackedGroups: return "packed_groups";
    case Counter::kExactFallbacks: return "exact_fallbacks";
    case Counter::kEnrouteInsertions: return "enroute_insertions";
    case Counter::kShardComponents: return "shard_components";
    case Counter::kShardFallbacks: return "shard_fallbacks";
    case Counter::kConeRejects: return "cone_rejects";
    case Counter::kSimdBatches: return "simd_batches";
    case Counter::kSimdBatchOccupancy: return "simd_batch_occupancy";
    case Counter::kGroupCacheHits: return "cache_hits";
    case Counter::kGroupCacheRevalidations: return "cache_revalidations";
    case Counter::kCandidatesReused: return "candidates_reused";
    case Counter::kDaWarmSeeds: return "da_warm_seeds";
    case Counter::kExactParallelBatches: return "exact_parallel_batches";
    case Counter::kEventsIngested: return "events_ingested";
    case Counter::kFramesStreamed: return "frames_streamed";
    case Counter::kIngestBackpressure: return "ingest_backpressure";
    case Counter::kFramesRejected: return "frames_rejected";
  }
  return "unknown";
}

std::string_view gauge_name(Gauge gauge) noexcept {
  switch (gauge) {
    case Gauge::kProfilePairsPeak: return "profile_pairs_peak";
    case Gauge::kPackingSetsPeak: return "packing_sets_peak";
    case Gauge::kUnitsPeak: return "units_peak";
    case Gauge::kPendingPeak: return "pending_peak";
    case Gauge::kLargestComponentPeak: return "largest_component_peak";
    case Gauge::kQueueDepthPeak: return "queue_depth_peak";
  }
  return "unknown";
}

FrameTrace aggregate_frames(const std::vector<FrameTrace>& frames) {
  FrameTrace total;
  total.frame = frames.size();
  for (const FrameTrace& f : frames) {
    total.now_seconds = std::max(total.now_seconds, f.now_seconds);
    total.wall_ms += f.wall_ms;
    total.idle_taxis += f.idle_taxis;
    total.busy_taxis += f.busy_taxis;
    total.pending_requests += f.pending_requests;
    total.assignments += f.assignments;
    for (std::size_t s = 0; s < kStageCount; ++s) total.stage_ns[s] += f.stage_ns[s];
    for (std::size_t c = 0; c < kCounterCount; ++c) total.counters[c] += f.counters[c];
    for (std::size_t g = 0; g < kGaugeCount; ++g) {
      total.gauges[g] = std::max(total.gauges[g], f.gauges[g]);
    }
  }
  return total;
}

TraceSink::TraceSink(TraceOptions options) : options_(options) {}

TraceSink::~TraceSink() {
  // Self-deactivate if someone forgot the Activation guard's scope.
  TraceSink* self = this;
  if (detail::g_active_sink.compare_exchange_strong(self, nullptr,
                                                    std::memory_order_acq_rel)) {
    detail::g_epoch.fetch_add(1, std::memory_order_acq_rel);
  }
}

detail::Cells* TraceSink::register_thread() {
  auto cells = std::make_shared<detail::Cells>();
  detail::Cells* raw = cells.get();
  std::lock_guard lock(registry_mutex_);
  registered_.push_back(std::move(cells));
  return raw;
}

void TraceSink::begin_frame(std::uint64_t frame_index, double now_seconds) {
  O2O_EXPECTS(!frame_open_);
  frame_open_ = true;
  current_ = FrameTrace{};
  current_.frame = frame_index;
  current_.now_seconds = now_seconds;
  frame_start_ = std::chrono::steady_clock::now();
  // Drop anything accumulated between frames so each frame is
  // self-contained. Safe: no traced parallel region runs at the frame
  // boundary (parallel_for is a barrier).
  std::lock_guard lock(registry_mutex_);
  for (const auto& cells : registered_) *cells = detail::Cells{};
}

FrameTrace TraceSink::end_frame() {
  O2O_EXPECTS(frame_open_);
  frame_open_ = false;
  const auto elapsed = std::chrono::steady_clock::now() - frame_start_;
  current_.wall_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  {
    std::lock_guard lock(registry_mutex_);
    for (const auto& cells : registered_) {
      for (std::size_t c = 0; c < kCounterCount; ++c) {
        current_.counters[c] += cells->counters[c];
      }
      for (std::size_t g = 0; g < kGaugeCount; ++g) {
        current_.gauges[g] = std::max(current_.gauges[g], cells->gauges[g]);
      }
      for (std::size_t s = 0; s < kStageCount; ++s) {
        current_.stage_ns[s] += cells->stage_ns[s];
      }
      *cells = detail::Cells{};
    }
  }

  ++frames_seen_;
  // Fold into the running aggregate (same rules as aggregate_frames).
  aggregate_.frame = frames_seen_;
  aggregate_.now_seconds = std::max(aggregate_.now_seconds, current_.now_seconds);
  aggregate_.wall_ms += current_.wall_ms;
  aggregate_.idle_taxis += current_.idle_taxis;
  aggregate_.busy_taxis += current_.busy_taxis;
  aggregate_.pending_requests += current_.pending_requests;
  aggregate_.assignments += current_.assignments;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    aggregate_.stage_ns[s] += current_.stage_ns[s];
  }
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    aggregate_.counters[c] += current_.counters[c];
  }
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    aggregate_.gauges[g] = std::max(aggregate_.gauges[g], current_.gauges[g]);
  }

  if (options_.per_frame && frames_.size() < options_.max_frames) {
    frames_.push_back(current_);
  }
  return current_;
}

void TraceSink::set_frame_context(std::uint64_t idle_taxis, std::uint64_t busy_taxis,
                                  std::uint64_t pending_requests) {
  O2O_EXPECTS(frame_open_);
  current_.idle_taxis = idle_taxis;
  current_.busy_taxis = busy_taxis;
  current_.pending_requests = pending_requests;
}

void TraceSink::add_assignments(std::uint64_t count) {
  O2O_EXPECTS(frame_open_);
  current_.assignments += count;
}

Activation::Activation(TraceSink& sink)
    : previous_(detail::g_active_sink.exchange(&sink, std::memory_order_acq_rel)) {
  detail::g_epoch.fetch_add(1, std::memory_order_acq_rel);
}

Activation::~Activation() {
  detail::g_active_sink.store(previous_, std::memory_order_release);
  detail::g_epoch.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace o2o::obs
