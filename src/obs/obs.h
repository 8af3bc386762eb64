// Frame-level observability: stage timers, typed counter/gauge
// registries, and per-frame trace records for the dispatch pipeline.
//
// Design constraints (DESIGN.md "Observability layer"):
//   * ~ns overhead when no sink is active -- every hot-path call is one
//     relaxed-ish atomic load plus a branch; a StageTimer never reads the
//     clock while disabled.
//   * No locks on hot paths while enabled -- each thread accumulates into
//     its own cache-line-aligned cell block; TraceSink::end_frame()
//     merges all registered blocks on the frame-owning thread.
//   * Compile-time kill switch: building a TU with -DO2O_OBS_DISABLED
//     turns the whole hot-path API into empty constexpr inlines (the
//     enabled/disabled variants live in distinct inline namespaces, so
//     mixed binaries stay ODR-clean).
//
// The merge protocol relies on the same barrier the dispatch pipeline
// already provides: ThreadPool::parallel_for blocks until every worker
// iteration finished, so by the time the frame owner calls end_frame()
// no other thread is writing its cells.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace o2o::obs {

/// Pipeline stages a dispatch frame spends time in. kDispatch is the
/// whole dispatcher call and overlaps the others; the remaining stages
/// are pairwise disjoint.
enum class Stage : std::uint8_t {
  kProfileBuild,      ///< preference profile construction
  kComponentExtract,  ///< union-find pass over the candidate graph (sharded engine)
  kStableMatching,    ///< deferred-acceptance rounds (Algorithm 1 / mirror)
  kBreakDispatch,     ///< Algorithm 2 enumeration via BreakDispatch
  kGroupEnum,         ///< feasible share-group enumeration (Algorithm 3, line 1)
  kPacking,           ///< maximum set packing solve
  kEnroute,           ///< en-route insertion extension
  kDispatch,          ///< whole Dispatcher::dispatch call
  kCandidateGen,      ///< pair-candidate generation (grid queries + dedup or reuse)
  kExactEval,         ///< exact group evaluation (optimal_route + detour checks)
  kIngest,            ///< streaming service: matcher's wait for and take of a frame
  kCodec,             ///< streaming service: wire encode/decode
  kServiceFrame,      ///< streaming service: whole frame (barrier to response)
};
inline constexpr std::size_t kStageCount = 13;

/// Monotone event counters, merged by summation.
enum class Counter : std::uint8_t {
  kProposals,            ///< deferred-acceptance proposals issued
  kRejections,           ///< proposals refused (incl. displaced incumbents)
  kBreakAttempts,        ///< BreakDispatch calls during Algorithm 2
  kBreakSuccesses,       ///< successful BreakDispatch calls
  kGridCandidates,       ///< taxis returned by grid radius queries
  kGridCandidatesPruned, ///< taxis the grid query skipped vs. a dense scan
  kPreferencePairs,      ///< scored (request, taxi) pairs kept in profiles
  kOracleTreeHits,       ///< NetworkOracle Dijkstra-tree cache hits
  kOracleTreeMisses,     ///< NetworkOracle Dijkstra-tree cache misses
  kSnapHits,             ///< snap-memo hits, per-thread front or shared tier
  kSnapMisses,           ///< snap-memo misses (a nearest-node search ran)
  kPairCandidates,       ///< fresh share-pair candidates surviving the grid prefilter
  kTripleCandidates,     ///< fresh share-triple candidates evaluated
  kFeasibleGroups,       ///< feasible share groups found (|C|)
  kPackedGroups,         ///< groups selected by set packing
  kExactFallbacks,       ///< kExact frames degraded to local search
  kEnrouteInsertions,    ///< requests served by en-route insertion
  kShardComponents,      ///< candidate-graph components dispatched (sharded engine)
  kShardFallbacks,       ///< sharded calls that took the serial path (parallel=false)
  kConeRejects,          ///< pair candidates dropped by the direction-cone prune
  kSimdBatches,          ///< 8-lane SIMD filter batches executed
  kSimdBatchOccupancy,   ///< lanes occupied across those batches
  kGroupCacheHits,       ///< feasible groups replayed from the last enumeration
  kGroupCacheRevalidations,  ///< exact group evaluations on a cached call
  kCandidatesReused,     ///< feasible pairs replayed from the last enumeration
  kDaWarmSeeds,          ///< deferred-acceptance engagements seeded from the prior frame
  kExactParallelBatches, ///< exact-evaluation batches fanned over the thread pool
  kEventsIngested,       ///< events in frames the matcher took: orders, drivers, barriers
  kFramesStreamed,       ///< frame barriers matched by the streaming service
  kIngestBackpressure,   ///< barriers that waited for room in the pipeline window
  kFramesRejected,       ///< frames dropped for violating the api contract
};
inline constexpr std::size_t kCounterCount = 31;

/// Peak working-set sizes, merged by maximum (within a frame and across
/// frames in the aggregate view).
enum class Gauge : std::uint8_t {
  kProfilePairsPeak,  ///< scored pairs held by one profile
  kPackingSetsPeak,   ///< sets handed to one set-packing solve
  kUnitsPeak,         ///< dispatch units (groups + singletons) in one frame
  kPendingPeak,       ///< pending requests in one frame
  kLargestComponentPeak,  ///< member requests in the largest sharded component
  kQueueDepthPeak,    ///< most complete frames waiting for the matcher (<= pipeline_depth)
};
inline constexpr std::size_t kGaugeCount = 6;

/// Short stable names used by the JSON/CSV exports and the CLI table.
std::string_view stage_name(Stage stage) noexcept;
std::string_view counter_name(Counter counter) noexcept;
std::string_view gauge_name(Gauge gauge) noexcept;

/// Everything one frame reported: context sizes, stage durations,
/// counters, and gauge peaks. Plain data; round-trips through
/// sim/report_io as JSON and CSV.
struct FrameTrace {
  std::uint64_t frame = 0;       ///< frame index within the run
  double now_seconds = 0.0;      ///< simulation clock at frame start
  double wall_ms = 0.0;          ///< begin_frame -> end_frame wall time
  std::uint64_t idle_taxis = 0;
  std::uint64_t busy_taxis = 0;
  std::uint64_t pending_requests = 0;
  std::uint64_t assignments = 0;
  std::array<std::uint64_t, kStageCount> stage_ns{};
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kGaugeCount> gauges{};

  friend bool operator==(const FrameTrace&, const FrameTrace&) = default;
};

/// Sums `frames` into one record: stage times and counters add, gauges
/// max, context sizes add (so aggregate.assignments is the run total);
/// `frame` holds the number of frames summed.
FrameTrace aggregate_frames(const std::vector<FrameTrace>& frames);

/// Knobs carried by DispatchConfig; consumed by whoever owns the sink
/// (the simulator CLI, a bench harness, a test).
struct TraceOptions {
  bool enabled = false;       ///< master switch: no sink is created when false
  bool per_frame = true;      ///< keep per-frame records (aggregate-only when false)
  std::size_t max_frames = 1u << 20;  ///< retention cap on per-frame records
};

namespace detail {

/// One thread's accumulation block. Cache-line aligned so two workers
/// never share a line; plain (non-atomic) fields because each block has
/// exactly one writer and is only read at the frame barrier.
struct alignas(64) Cells {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kGaugeCount> gauges{};
  std::array<std::uint64_t, kStageCount> stage_ns{};
};

}  // namespace detail

/// Collects one run's frame traces. Lifecycle:
///
///   obs::TraceSink sink(options);
///   obs::Activation guard(sink);          // installs as process-active
///   for each frame:
///     sink.begin_frame(index, now);
///     ... dispatch (hot paths report via obs::add / StageTimer) ...
///     sink.set_frame_context(idle, busy, pending);
///     sink.add_assignments(n);
///     sink.end_frame();                   // merges thread cells
///
/// begin/end/set/add member calls must come from the frame-owning thread
/// while no traced parallel region is running. Hot-path reporting from
/// worker threads is lock-free (thread-local cells).
class TraceSink {
 public:
  explicit TraceSink(TraceOptions options = {.enabled = true});
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  const TraceOptions& options() const noexcept { return options_; }

  void begin_frame(std::uint64_t frame_index, double now_seconds);
  /// Merges every registered thread block into the open frame, appends
  /// it (subject to per_frame / max_frames), folds it into the running
  /// aggregate, and returns it.
  FrameTrace end_frame();

  /// Context sizes of the open frame (frame-owner thread only).
  void set_frame_context(std::uint64_t idle_taxis, std::uint64_t busy_taxis,
                         std::uint64_t pending_requests);
  void add_assignments(std::uint64_t count);

  std::uint64_t frames_recorded() const noexcept { return frames_seen_; }
  const std::vector<FrameTrace>& frames() const noexcept { return frames_; }
  /// Running aggregate over every frame ended so far (including frames
  /// dropped from `frames()` by per_frame=false or the retention cap).
  const FrameTrace& aggregate() const noexcept { return aggregate_; }

  /// Registers the calling thread's block with this sink (internal; used
  /// by the hot-path thread binding).
  detail::Cells* register_thread();

 private:
  TraceOptions options_;
  std::mutex registry_mutex_;
  std::vector<std::shared_ptr<detail::Cells>> registered_;

  bool frame_open_ = false;
  FrameTrace current_;
  std::chrono::steady_clock::time_point frame_start_{};
  std::vector<FrameTrace> frames_;
  FrameTrace aggregate_;
  std::uint64_t frames_seen_ = 0;
};

/// Installs `sink` as the process-active sink for its lifetime. Nesting
/// is not supported (the previous sink is deactivated); activation and
/// deactivation must happen while no traced parallel region runs.
class Activation {
 public:
  explicit Activation(TraceSink& sink);
  ~Activation();

  Activation(const Activation&) = delete;
  Activation& operator=(const Activation&) = delete;

 private:
  TraceSink* previous_;
};

namespace detail {

// The process-active sink and its activation epoch. Threads cache their
// cell block per epoch; bumping the epoch on every (de)activation makes
// stale bindings impossible (no ABA on reused sink addresses).
extern std::atomic<TraceSink*> g_active_sink;
extern std::atomic<std::uint64_t> g_epoch;

/// Slow path of cells(): (re)binds the calling thread to the active
/// sink under the sink's registry mutex. Returns nullptr when the sink
/// vanished meanwhile.
Cells* bind_current_thread(TraceSink* sink, std::uint64_t epoch);

}  // namespace detail

/// Active sink, or nullptr. Safe from any thread.
inline TraceSink* active_sink() noexcept {
  return detail::g_active_sink.load(std::memory_order_acquire);
}

#if defined(O2O_OBS_DISABLED)

/// Compile-time-disabled variant: the whole hot-path API collapses to
/// empty constexpr inlines. Lives in its own inline namespace so TUs
/// built with and without the flag can link into one binary.
inline namespace noop {

constexpr bool compile_time_enabled() noexcept { return false; }
constexpr bool tracing_active() noexcept { return false; }

constexpr void add(Counter, std::uint64_t = 1) noexcept {}
constexpr void gauge_max(Gauge, std::uint64_t) noexcept {}
constexpr void add_stage_ns(Stage, std::uint64_t) noexcept {}

/// Empty shell: no clock reads, no state, sizeof == 1.
class StageTimer {
 public:
  constexpr explicit StageTimer(Stage) noexcept {}
};

class ScopedTimer {
 public:
  constexpr explicit ScopedTimer(std::uint64_t&) noexcept {}
};

}  // inline namespace noop

#else  // !O2O_OBS_DISABLED

inline namespace live {

constexpr bool compile_time_enabled() noexcept { return true; }

/// The calling thread's cell block for the active sink, or nullptr when
/// tracing is off. Disabled cost: one acquire load + branch.
inline detail::Cells* cells() noexcept {
  TraceSink* sink = detail::g_active_sink.load(std::memory_order_acquire);
  if (sink == nullptr) return nullptr;
  thread_local std::uint64_t bound_epoch = 0;
  thread_local detail::Cells* bound_cells = nullptr;
  const std::uint64_t epoch = detail::g_epoch.load(std::memory_order_acquire);
  if (bound_epoch != epoch) {
    bound_cells = detail::bind_current_thread(sink, epoch);
    bound_epoch = epoch;
  }
  return bound_cells;
}

inline bool tracing_active() noexcept { return active_sink() != nullptr; }

inline void add(Counter counter, std::uint64_t n = 1) noexcept {
  if (detail::Cells* c = cells()) {
    c->counters[static_cast<std::size_t>(counter)] += n;
  }
}

inline void gauge_max(Gauge gauge, std::uint64_t value) noexcept {
  if (detail::Cells* c = cells()) {
    std::uint64_t& slot = c->gauges[static_cast<std::size_t>(gauge)];
    if (value > slot) slot = value;
  }
}

inline void add_stage_ns(Stage stage, std::uint64_t ns) noexcept {
  if (detail::Cells* c = cells()) {
    c->stage_ns[static_cast<std::size_t>(stage)] += ns;
  }
}

/// RAII stage timer. Binds to the calling thread's cells once at
/// construction; when tracing is off it never touches the clock.
class StageTimer {
 public:
  explicit StageTimer(Stage stage) noexcept : cells_(cells()), stage_(stage) {
    if (cells_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() {
    if (cells_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      cells_->stage_ns[static_cast<std::size_t>(stage_)] += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    }
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  detail::Cells* cells_;
  Stage stage_;
  std::chrono::steady_clock::time_point start_{};
};

/// RAII timer into a caller-owned nanosecond accumulator -- the
/// sink-free building block benches and tests use directly.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::uint64_t& out_ns) noexcept
      : out_(&out_ns), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    *out_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::uint64_t* out_;
  std::chrono::steady_clock::time_point start_;
};

}  // inline namespace live

#endif  // O2O_OBS_DISABLED

}  // namespace o2o::obs
