// The frozen public frame contract of the streaming dispatch service.
//
// These are the only types that cross the service boundary: plain
// structs, no methods beyond comparison, every field either a fixed-size
// scalar, a string or a vector of such. The schema mirrors the per-timestep
// `dispatch(dispatch_observ)` agent API served by the related dispatch
// platforms (SNIPPETS.md Snippets 1–2): order/driver ids, locations,
// timestamps, ETA and reward fields — adapted to this repo's coordinate
// frame (km-scaled x/y instead of lng/lat) and to ride sharing (an
// assignment may carry several orders and a multi-stop route).
//
// Versioning: kApiVersionMajor is bumped on any breaking change to these
// structs or their wire encoding (service/codec.h); the codec rejects
// events whose "v" field has a different major version. Minor bumps are
// additive (new optional fields) and decode fine.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "geo/point.h"

namespace o2o::api {

inline constexpr int kApiVersionMajor = 1;
inline constexpr int kApiVersionMinor = 0;

using OrderId = std::int32_t;
using DriverId = std::int32_t;

/// One open passenger order (a pending request in paper terms).
struct Order {
  OrderId order_id = -1;
  double timestamp = 0.0;    ///< creation time, seconds from stream start;
                             ///< finite and at or before its frame's timestamp
  geo::Point start;          ///< pick-up location
  geo::Point finish;         ///< drop-off location
  int seats = 1;             ///< passengers travelling together
  /// Platform-defined reward for serving this order (fare units). Purely
  /// informational to the matcher; 0 when the producer doesn't price.
  double reward_units = 0.0;

  friend bool operator==(const Order&, const Order&) = default;
};

/// One stop of a driver's committed route (mirror of routing::Stop).
struct DriverStop {
  OrderId order_id = -1;
  bool is_pickup = true;
  geo::Point point;

  friend bool operator==(const DriverStop&, const DriverStop&) = default;
};

/// One driver's state at the frame barrier. An idle driver has an empty
/// route; a busy driver reports its remaining route, the orders already
/// onboard, and the seat demand of every order on the route (which the
/// matcher needs for en-route capacity checks — those orders are no
/// longer in the frame's open-order list).
struct Driver {
  DriverId driver_id = -1;
  geo::Point location;
  int seats = 4;
  int seats_in_use = 0;
  std::vector<OrderId> onboard;
  std::vector<DriverStop> route;
  std::vector<std::pair<OrderId, int>> route_seats;

  bool idle() const noexcept { return route.empty(); }

  friend bool operator==(const Driver&, const Driver&) = default;
};

/// One complete frame observation: everything the matcher sees at the
/// barrier. The service is stateless per frame at the contract level
/// (producers resend the full open-order and driver picture each frame,
/// like the agent API); acceleration state cached inside a session never
/// changes results. The one cross-frame rule: a frame's timestamp must not
/// be earlier than the last served frame's.
struct FrameRequest {
  std::uint64_t frame = 0;
  double timestamp = 0.0;
  std::vector<Order> orders;    ///< sorted by (timestamp, order_id)
  std::vector<Driver> drivers;  ///< sorted by driver_id

  friend bool operator==(const FrameRequest&, const FrameRequest&) = default;
};

/// One dispatch decision: `driver_id` serves the newly assigned
/// `order_ids` along `route` (which re-includes everything the driver
/// already committed to, per the simulator's assignment contract).
struct Assignment {
  DriverId driver_id = -1;
  std::vector<OrderId> order_ids;
  geo::Point start;               ///< route anchor: the driver's position
  std::vector<DriverStop> route;
  /// Seconds until the driver reaches the first stop of the new route at
  /// the configured cruise speed (the agent API's pick_up_eta field).
  double pick_up_eta = 0.0;

  friend bool operator==(const Assignment&, const Assignment&) = default;
};

/// The matcher's answer to one FrameRequest. A frame that breaks the
/// api contract is answered with only `frame` and a non-empty
/// `reject_reason` (a frame_rejected line on the wire).
struct FrameResponse {
  std::uint64_t frame = 0;
  double timestamp = 0.0;
  std::vector<Assignment> assignments;
  std::string reject_reason;  ///< non-empty: rejected, nothing dispatched

  friend bool operator==(const FrameResponse&, const FrameResponse&) = default;
};

/// One unit of streamed input: orders and driver states arrive as
/// individual events (possibly from several producer threads); an
/// kEndFrame event is the barrier that closes frame `frame` at time
/// `timestamp` and hands the accumulated picture to the matcher.
struct RideEvent {
  enum class Kind : std::uint8_t { kOrder, kDriver, kEndFrame };

  Kind kind = Kind::kEndFrame;
  Order order;        ///< valid when kind == kOrder
  Driver driver;      ///< valid when kind == kDriver
  std::uint64_t frame = 0;   ///< valid when kind == kEndFrame
  double timestamp = 0.0;    ///< valid when kind == kEndFrame

  static RideEvent make_order(Order order) {
    RideEvent event;
    event.kind = Kind::kOrder;
    event.order = std::move(order);
    return event;
  }
  static RideEvent make_driver(Driver driver) {
    RideEvent event;
    event.kind = Kind::kDriver;
    event.driver = std::move(driver);
    return event;
  }
  static RideEvent make_end_frame(std::uint64_t frame, double timestamp) {
    RideEvent event;
    event.kind = Kind::kEndFrame;
    event.frame = frame;
    event.timestamp = timestamp;
    return event;
  }

  friend bool operator==(const RideEvent&, const RideEvent&) = default;
};

}  // namespace o2o::api
