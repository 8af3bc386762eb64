#include "sim/frame_state.h"

#include <span>

namespace o2o::sim {

FrameSnapshotter::FrameSnapshotter(const geo::DistanceOracle& oracle,
                                   double idle_grid_cell_km)
    : oracle_(oracle), idle_grid_cell_km_(idle_grid_cell_km) {
  reset();
}

void FrameSnapshotter::reset() {
  frame_ = FrameBuffers{};
  idle_grid_.reset();
  group_cache_ = std::make_unique<packing::GroupCache>();
}

FrameBuffers& FrameSnapshotter::fill() {
  frame_.idle.clear();
  frame_.busy.clear();
  frame_.pending.clear();
  return frame_;
}

DispatchContext FrameSnapshotter::assemble(double now) {
  // Index the idle snapshot so dispatchers can prune candidate taxis by
  // radius instead of scanning the whole fleet.
  idle_grid_.reset();
  if (!frame_.idle.empty()) {
    idle_grid_.emplace(std::span<const trace::Taxi>(frame_.idle), idle_grid_cell_km_);
  }

  // Warm the oracle for this frame's snapshot: the network oracle
  // resolves every idle-taxi endpoint once up front so each dispatch
  // query hits its snap memo instead of re-running a nearest-node search.
  frame_points_.clear();
  frame_points_.reserve(frame_.idle.size());
  for (const trace::Taxi& taxi : frame_.idle) frame_points_.push_back(taxi.location);
  oracle_.prepare_frame(frame_points_);

  DispatchContext context;
  context.now_seconds = now;
  context.idle_taxis = frame_.idle;
  context.busy_taxis = frame_.busy;
  context.pending = frame_.pending;
  context.oracle = &oracle_;
  context.idle_grid = idle_grid_ ? &*idle_grid_ : nullptr;
  context.group_cache = group_cache_.get();
  return context;
}

}  // namespace o2o::sim
