// DispatchSession: the service-side matcher state that persists across
// frames. It owns the dispatcher instance (whose warm-start deferred-
// acceptance state carries between calls), the cross-frame GroupCache,
// and the per-frame conversion buffers between the o2o::api contract
// and the internal dispatch types. One session == one logical stream;
// feeding it the same FrameRequest sequence always produces the same
// FrameResponse sequence, bit for bit.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dispatch_config.h"
#include "geo/distance_oracle.h"
#include "index/spatial_grid.h"
#include "packing/group_enum.h"
#include "service/api.h"
#include "sim/dispatcher.h"
#include "trace/fleet.h"
#include "trace/request.h"

namespace o2o::service {

class DispatchSession {
 public:
  /// `kind` names the dispatcher ("nstd-p", "nstd-t", "std-p", "std-t");
  /// the config is validated by the factory (O2O_EXPECTS on errors).
  DispatchSession(std::string_view kind, DispatchConfig config,
                  const geo::DistanceOracle& oracle);

  const DispatchConfig& config() const noexcept { return config_; }
  const std::string& dispatcher_name() const noexcept { return dispatcher_name_; }

  /// Checks the api contract on a frame that crossed a trust boundary:
  /// duplicate order or driver ids, an order asking for fewer than one
  /// seat, or a driver whose seats_in_use lies outside [0, seats] fail
  /// it. Returns false and sets `error` (when non-null) to a message
  /// naming the violation kind ("duplicate order_id ...", "invalid seats
  /// ...", "invalid seats_in_use ...") on the first violation.
  static bool validate(const api::FrameRequest& request, std::string* error = nullptr);

  /// Matches one frame. Orders and drivers are (re)sorted to the
  /// canonical barrier order — orders by (timestamp, order_id), drivers
  /// by driver_id — so producers need not pre-sort. Frames that fail
  /// validate() come back as nullopt with `error` set (when non-null):
  /// remote input must never abort the process.
  std::optional<api::FrameResponse> dispatch(const api::FrameRequest& request,
                                             std::string* error = nullptr);

  /// Drops all cross-frame state (GroupCache, dispatcher warm starts) by
  /// rebuilding the dispatcher — the next frame runs cold.
  void reset();

 private:
  DispatchConfig config_;
  const geo::DistanceOracle& oracle_;
  std::string kind_;
  std::string dispatcher_name_;
  std::unique_ptr<sim::Dispatcher> dispatcher_;
  std::unique_ptr<packing::GroupCache> group_cache_;

  // Frame conversion buffers (reused across calls).
  std::vector<trace::Request> pending_;
  std::vector<trace::Taxi> idle_;
  std::vector<sim::BusyTaxiView> busy_;
  std::vector<geo::Point> frame_points_;
};

}  // namespace o2o::service
