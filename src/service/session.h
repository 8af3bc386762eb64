// DispatchSession: the service-side matcher state that persists across
// frames. It owns the dispatcher instance (whose warm-start deferred-
// acceptance state carries between calls) and a sim::FrameSnapshotter,
// the frame-assembly path the batch simulator uses too: the session only
// converts the o2o::api structs into the snapshotter's canonical buffers.
// One session == one logical stream; feeding it the same FrameRequest
// sequence always produces the same FrameResponse sequence, bit for bit.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dispatch_config.h"
#include "geo/distance_oracle.h"
#include "service/api.h"
#include "sim/dispatcher.h"
#include "sim/frame_state.h"

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
  /// duplicate order or driver ids, an order whose timestamp is
  /// non-finite or later than the frame's, an order whose seats lie
  /// outside [1, config().sharing_params().taxi_seats], a driver whose
  /// seats_in_use lies outside [0, seats], or a
  /// timestamp earlier than the last dispatched frame's fail it (equal
  /// timestamps pass). So does a driver whose route state is
  /// inconsistent: an empty route with seats in use, onboard orders or
  /// route_seats entries; or a route whose orders route_seats does not
  /// list exactly once, an order without exactly one drop-off, an onboard
  /// list that is not exactly the routed orders without a pick-up, or a
  /// seats_in_use other than the onboard orders' seat sum. Returns false
  /// and sets `error` (when non-null) to a message naming the violation
  /// kind ("duplicate order_id ...", "invalid timestamp ...", "invalid
  /// seats ...", "invalid seats_in_use ...", "invalid route state ...",
  /// "non-monotonic timestamp ...") on the first violation. Reuses the
  /// session's buffers, hence non-const.
  bool validate(const api::FrameRequest& request, std::string* error = nullptr);

  /// Matches one frame. Orders and drivers are (re)sorted to the
  /// canonical barrier order — orders by (timestamp, order_id), drivers
  /// by driver_id — so producers need not pre-sort. Frames that fail
  /// validate() come back as nullopt with `error` set (when non-null):
  /// remote input must never abort the process.
  std::optional<api::FrameResponse> dispatch(const api::FrameRequest& request,
                                             std::string* error = nullptr);

  /// Drops all cross-frame state (GroupCache, dispatcher warm starts,
  /// the last frame's timestamp) by rebuilding the dispatcher — the next
  /// frame runs cold.
  void reset();

 private:
  friend class StreamingService;

  /// validate()'s buffers for one driver's route-state check.
  struct RouteScratch {
    std::vector<std::pair<api::OrderId, bool>> stops;  ///< (order, is_pickup)
    std::vector<std::pair<api::OrderId, int>> seats;
    std::vector<api::OrderId> onboard;
  };

  /// Why a driver's route, onboard list, route_seats and seats_in_use do
  /// not describe one state, or nullptr when they do.
  static const char* route_state_error(const api::Driver& driver, RouteScratch& scratch);

  /// Buffers validate() and the fill step reuse from frame to frame, so a
  /// warm frame allocates none of them.
  struct Scratch {
    std::vector<std::int32_t> ids;              ///< validate(): sorted id copies
    RouteScratch route;                         ///< validate(): route state
    std::vector<const api::Driver*> drivers;    ///< fill: drivers by id
  };

  /// dispatch() for a request that already passed validate().
  api::FrameResponse dispatch_validated(const api::FrameRequest& request);

  DispatchConfig config_;
  const geo::DistanceOracle& oracle_;
  std::string kind_;
  std::string dispatcher_name_;
  std::unique_ptr<sim::Dispatcher> dispatcher_;
  sim::FrameSnapshotter snapshotter_;
  /// Timestamp of the last dispatched frame; validate() rejects earlier ones.
  std::optional<double> last_timestamp_;
  Scratch scratch_;
};

}  // namespace o2o::service
