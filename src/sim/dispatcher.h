// The strategy interface between the frame-based simulator and the
// dispatch algorithms (the paper's NSTD-P/T and STD-P/T plus the five
// baselines). Each frame the simulator hands the dispatcher a snapshot
// of idle taxis, (optionally) busy taxis with their remaining routes,
// and the pending requests; the dispatcher returns assignments.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "geo/distance_oracle.h"
#include "routing/route.h"
#include "trace/fleet.h"
#include "trace/request.h"

namespace o2o::index {
class SpatialGrid;
}  // namespace o2o::index

namespace o2o::packing {
class GroupCache;
}  // namespace o2o::packing

namespace o2o::sim {

/// Snapshot of a busy taxi for dispatchers that support en-route
/// insertion (the sharing baselines).
struct BusyTaxiView {
  trace::Taxi taxi;                               ///< id, current position, seats
  std::vector<routing::Stop> remaining_stops;     ///< committed route
  std::vector<trace::RequestId> onboard;          ///< picked up, not yet dropped
  int seats_in_use = 0;                           ///< current onboard seat usage
  /// Seat demand of every request appearing on the remaining route
  /// (needed by en-route-insertion dispatchers for capacity checks).
  std::vector<std::pair<trace::RequestId, int>> route_request_seats;
};

struct DispatchContext {
  double now_seconds = 0.0;
  std::span<const trace::Taxi> idle_taxis;        ///< current positions
  std::span<const BusyTaxiView> busy_taxis;
  std::span<const trace::Request> pending;        ///< undispatched requests
  const geo::DistanceOracle* oracle = nullptr;
  /// Spatial index over `idle_taxis`, keyed by span index (may be null).
  /// Dispatchers use it to prune candidate taxis per request.
  const index::SpatialGrid* idle_grid = nullptr;
  /// Run-lifetime share-group verdict cache owned by the frame owner's
  /// FrameSnapshotter (one per simulator run or service session, fresh
  /// after a reset), or null in a hand-built context.
  /// Sharing dispatchers hand it to enumerate_share_groups so verdicts
  /// persist across consecutive frames; non-sharing dispatchers ignore
  /// it. Frame-owning thread only.
  packing::GroupCache* group_cache = nullptr;
};

/// One dispatch decision. For an idle taxi the route serves exactly
/// `requests`; for a busy taxi (en-route insertion) the route must also
/// re-include everything the taxi already committed to.
struct DispatchAssignment {
  trace::TaxiId taxi = trace::kInvalidTaxi;
  std::vector<trace::RequestId> requests;  ///< newly dispatched requests
  routing::Route route;                    ///< anchored at the taxi position
};

class Dispatcher {
 public:
  virtual ~Dispatcher() = default;
  virtual std::string name() const = 0;
  virtual std::vector<DispatchAssignment> dispatch(const DispatchContext& context) = 0;
};

/// Aliases for the unified dispatcher interface: a dispatcher maps one
/// frame's context to one frame's dispatch result.
using Frame = DispatchContext;
using DispatchResult = std::vector<DispatchAssignment>;

}  // namespace o2o::sim
