// Per-frame dispatch state: the one code path that assembles a
// DispatchContext for every frame owner (the batch Simulator and the
// streaming service's DispatchSession). A frame is built in two steps.
// The owner first fills the canonical idle/busy/pending buffers from its
// own representation (fill()); assemble() then indexes the idle taxis,
// warms the oracle and hands out the run's GroupCache, the only state
// that persists between dispatch calls.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "geo/distance_oracle.h"
#include "index/spatial_grid.h"
#include "packing/group_enum.h"
#include "sim/dispatcher.h"
#include "trace/fleet.h"
#include "trace/request.h"

namespace o2o::sim {

/// One frame's dispatch inputs in canonical order: taxis by ascending
/// id, pending requests by (request time, id). Every frame owner fills
/// them in this order, which is what makes a streamed frame bit-identical
/// to the batch simulator's.
struct FrameBuffers {
  std::vector<trace::Taxi> idle;          ///< at their current positions
  std::vector<BusyTaxiView> busy;         ///< grown through add_busy() only
  std::vector<trace::Request> pending;

  /// Appends an empty busy view and returns it. The view is one an
  /// earlier frame used, when one is spare, so its vectors keep their
  /// capacity and a warm frame allocates none.
  BusyTaxiView& add_busy();

  /// Empties all three buffers; the busy views become spares for add_busy().
  void clear();

 private:
  std::vector<BusyTaxiView> spare_busy_;
};

/// Builds each frame's DispatchContext from the owner-filled buffers and
/// carries the cross-frame GroupCache. The spans inside a returned
/// context point into buffers owned here and stay valid until the next
/// fill()/reset() call.
class FrameSnapshotter {
 public:
  FrameSnapshotter(const geo::DistanceOracle& oracle, double idle_grid_cell_km);

  /// Drops the cross-frame state (a fresh GroupCache), so the next frame
  /// runs cold and repeated runs of the same owner stay independent.
  void reset();

  /// Fill step: returns the frame buffers, empty, for the owner to refill
  /// in canonical order.
  FrameBuffers& fill();

  /// Assemble step: indexes the idle taxis in a SpatialGrid (rebuilt in
  /// place each frame), prepares the oracle for their positions and
  /// returns the frame's context.
  DispatchContext assemble(double now);

 private:
  const geo::DistanceOracle& oracle_;
  double idle_grid_cell_km_;

  // Per-frame buffers, refilled every frame.
  FrameBuffers frame_;
  std::optional<index::SpatialGrid> idle_grid_;
  std::vector<geo::Point> frame_points_;

  /// Cross-frame share-group verdict cache handed to dispatchers via
  /// DispatchContext::group_cache. Fresh per reset().
  std::unique_ptr<packing::GroupCache> group_cache_;
};

}  // namespace o2o::sim
