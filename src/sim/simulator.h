// Frame-based city simulator (Section III-A): time is discretized into
// frames (one minute by default); idle taxis are dispatched to pending
// requests within each frame; taxis drive at a fixed speed (20 km/h in
// the paper's evaluation) along their routes, picking up and dropping
// off passengers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geo/distance_oracle.h"
#include "geo/road_network.h"
#include "obs/obs.h"
#include "sim/dispatcher.h"
#include "sim/frame_state.h"
#include "sim/report.h"
#include "trace/fleet.h"
#include "trace/trace.h"

namespace o2o::sim {

struct SimulatorConfig {
  double frame_seconds = 60.0;
  double speed_kmh = 20.0;
  /// Pending requests older than this give up (cancelled). The paper's
  /// stable dispatch deliberately leaves some requests waiting for a
  /// nearby busy taxi instead of dispatching a distant idle one.
  double cancel_timeout_seconds = 3600.0;
  /// Extra time simulated past the last request so trailing rides finish.
  double drain_seconds = 1800.0;
  /// α / β used for the dissatisfaction metrics (the paper sets both 1).
  double alpha = 1.0;
  double beta = 1.0;
  /// Optional kinematic substrate: when set, taxis drive along this
  /// network's shortest paths between stops instead of straight lines
  /// (pair it with a NetworkOracle over the same network for a fully
  /// road-consistent experiment). The network must be laid out in the
  /// same coordinate frame as the trace.
  const geo::RoadNetwork* road_network = nullptr;
  /// Cell size of the per-frame spatial index over idle taxis handed to
  /// dispatchers via DispatchContext::idle_grid.
  double idle_grid_cell_km = 1.0;
  /// When set, run() installs the sink as the process-active trace sink
  /// and drives its frame lifecycle (begin/end around every frame).
  obs::TraceSink* trace_sink = nullptr;
};

/// Runtime state of one taxi.
struct TaxiState {
  trace::Taxi spec;                      ///< id, seats (location = initial)
  geo::Point position;
  std::deque<routing::Stop> stops;       ///< remaining route
  std::vector<trace::RequestId> onboard; ///< picked up
  std::vector<trace::RequestId> committed;  ///< dispatched, not yet picked up
  int seats_in_use = 0;
  double distance_driven_km = 0.0;
  /// Current leg's drivable polyline (network mode); rebuilt per leg and
  /// discarded whenever the route changes.
  std::vector<geo::Point> leg_waypoints;
  std::size_t next_waypoint = 0;

  bool idle() const noexcept { return stops.empty(); }
};

/// Per-frame dispatch hook for run_streamed: receives the assembled
/// frame context (and the frame index) and returns the assignments to
/// apply — exactly what Dispatcher::dispatch returns, but the callee
/// may route the frame anywhere first (e.g. through the streaming
/// service's wire codec) as long as the returned assignments are valid
/// for the context.
using FrameDispatchFn = std::function<std::vector<DispatchAssignment>(
    const DispatchContext&, std::uint64_t frame)>;

/// Runs `dispatcher` over `trace` with the given fleet and returns the
/// full report. Deterministic for a fixed trace/fleet/dispatcher.
class Simulator {
 public:
  Simulator(const trace::Trace& trace, std::vector<trace::Taxi> fleet,
            const geo::DistanceOracle& oracle, SimulatorConfig config = {});

  SimulationReport run(Dispatcher& dispatcher);

  /// The frame loop with the dispatcher call abstracted out: the
  /// streaming service's replay driver uses this to push every frame
  /// through the wire codec and a DispatchSession, then feed the decoded
  /// assignments back — proving streamed output bit-identical to run().
  SimulationReport run_streamed(const FrameDispatchFn& dispatch_fn,
                                std::string_view dispatcher_name);

 private:
  const trace::Trace& trace_;
  std::vector<trace::Taxi> initial_fleet_;
  const geo::DistanceOracle& oracle_;
  SimulatorConfig config_;

  // Per-run state (reset by run()/run_streamed()).
  std::vector<TaxiState> taxis_;
  std::unordered_map<trace::TaxiId, std::size_t> taxi_index_;
  std::deque<trace::Request> pending_;
  std::unordered_map<trace::RequestId, trace::Request> active_requests_;
  SimulationReport report_;
  std::unordered_map<trace::RequestId, std::size_t> record_index_;
  /// Assembles each frame's DispatchContext and owns the cross-frame
  /// GroupCache.
  FrameSnapshotter snapshotter_;

  void reset();
  /// Fill step of a frame: the idle and busy taxis and the pending
  /// queue, converted from the live state into the snapshotter's buffers.
  void fill_frame(FrameBuffers& frame) const;
  void ingest_arrivals(std::size_t& next_request, double now);
  void cancel_stale(double now);
  void apply_assignment(const DispatchAssignment& assignment, double now);
  void validate_assignment(const DispatchAssignment& assignment,
                           const TaxiState& taxi) const;
  void move_taxis(double now, double dt);
  void record_dispatch(const DispatchAssignment& assignment, const TaxiState& taxi,
                       double now);
  RequestRecord& record_of(trace::RequestId id);
};

}  // namespace o2o::sim
