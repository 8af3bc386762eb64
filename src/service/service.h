// StreamingService: turns the batch matcher into a continuous stream.
//
// Producers (any number of threads) push api::RideEvents into the
// lock-free ingestion ring; the matcher thread drains it, accumulates
// the open frame, and on the kEndFrame barrier snapshots
// deterministically — orders sorted by (timestamp, order_id), drivers by
// driver_id, via DispatchSession — so the streamed output is
// bit-identical to the equivalent batch run no matter how producer
// threads interleaved.
//
// Pipelining: events of frame t+1 may be pushed while frame t is still
// matching. ServiceOptions::pipeline_depth bounds how many *complete*
// frames may sit in the ring ahead of the matcher; submitting a barrier
// beyond that waits (with counted backpressure) until the matcher
// catches up, which keeps worst-case response latency bounded.
//
// Waiting is spin-then-park: a waiter polls for a few tens of
// microseconds, then blocks in std::atomic::wait, so an idle server uses
// no CPU. Producers wake the matcher after every push and on close(); the
// matcher wakes producers after every pop and every frame it takes out
// of the pipeline window.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/dispatch_config.h"
#include "geo/distance_oracle.h"
#include "service/api.h"
#include "service/ingest.h"
#include "service/session.h"

namespace o2o::service {

class StreamingService {
 public:
  StreamingService(std::string_view kind, DispatchConfig config,
                   const geo::DistanceOracle& oracle);

  const DispatchSession& session() const noexcept { return session_; }

  /// Producer side, any thread. submit() waits until the ring (and, for
  /// barriers, the pipeline window) accepts the event; try_submit()
  /// returns false instead of waiting on a full ring or window.
  void submit(const api::RideEvent& event);
  bool try_submit(const api::RideEvent& event);

  /// Producer side: no further events will be submitted. Wakes a matcher
  /// blocked in next_response().
  void close();

  /// Matcher side, one thread. Blocks until a complete frame is
  /// available and answers it: the dispatch response, or, for a frame
  /// that fails DispatchSession::validate, a response holding only the
  /// frame number and a non-empty `reject_reason` (nothing dispatched).
  /// Returns nullopt once the stream is closed and fully drained.
  std::optional<api::FrameResponse> next_answer();

  /// next_answer() without the rejections: skips rejected frames and
  /// returns the next dispatch response (or nullopt at the end).
  std::optional<api::FrameResponse> next_response();

 private:
  bool push_with_backpressure(const api::RideEvent& event, bool blocking);
  /// Matcher side: the next event, waiting while the ring is empty; false
  /// once the stream is closed and drained.
  bool pop_event(api::RideEvent& event);

  DispatchSession session_;
  IngestQueue<api::RideEvent> queue_;
  std::atomic<std::size_t> frames_in_flight_{0};
  std::atomic<bool> closed_{false};
  // Wake-up counters for spin_then_park (service.cpp): bumped on every
  // push and on close, and on every pop or frame that frees space.
  std::atomic<std::uint32_t> event_pushed_{0};
  std::atomic<std::uint32_t> space_freed_{0};
  std::size_t pipeline_depth_;

  // Matcher-thread frame accumulation.
  std::vector<api::Order> open_orders_;
  std::vector<api::Driver> open_drivers_;
  /// Ingest metrics since the last dispatched frame, reported with it.
  struct PendingIngest {
    std::uint64_t ingest_ns = 0;
    std::uint64_t events = 0;
    std::uint64_t rejected = 0;
    std::size_t depth_peak = 0;
  };
  PendingIngest pending_;
};

}  // namespace o2o::service
