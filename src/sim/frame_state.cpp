#include "sim/frame_state.h"

#include <span>
#include <utility>

namespace o2o::sim {

BusyTaxiView& FrameBuffers::add_busy() {
  if (spare_busy_.empty()) return busy.emplace_back();
  BusyTaxiView& view = busy.emplace_back(std::move(spare_busy_.back()));
  spare_busy_.pop_back();
  return view;
}

void FrameBuffers::clear() {
  idle.clear();
  pending.clear();
  // Set aside last first, so add_busy() hands slot i last frame's view i:
  // an owner that fills busy taxis in id order gets each taxi's old
  // buffers back.
  for (auto view = busy.rbegin(); view != busy.rend(); ++view) {
    view->taxi = trace::Taxi{};
    view->remaining_stops.clear();
    view->onboard.clear();
    view->seats_in_use = 0;
    view->route_request_seats.clear();
    spare_busy_.push_back(std::move(*view));
  }
  busy.clear();
}

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
  frame_.clear();
  return frame_;
}

DispatchContext FrameSnapshotter::assemble(double now) {
  // Index the idle snapshot so dispatchers can prune candidate taxis by
  // radius instead of scanning the whole fleet. The grid is rebuilt in
  // place, so a warm frame reuses last frame's arrays.
  const std::span<const trace::Taxi> idle(frame_.idle);
  if (!idle_grid_) {
    idle_grid_.emplace(idle, idle_grid_cell_km_);
  } else {
    idle_grid_->rebuild(idle);
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
  context.idle_grid = idle.empty() ? nullptr : &*idle_grid_;
  context.group_cache = group_cache_.get();
  return context;
}

}  // namespace o2o::sim
