// StreamingService: turns the batch matcher into a continuous stream.
//
// Producers (any number of threads) submit api::RideEvents; each order or
// driver goes straight into the open api::FrameRequest under one mutex,
// and the kEndFrame barrier closes it into a FIFO of complete frames. The
// matcher thread takes one whole frame at a time and snapshots it
// deterministically — orders sorted by (timestamp, order_id), drivers by
// driver_id, via DispatchSession — so the streamed output is
// bit-identical to the equivalent batch run no matter how producer
// threads interleaved.
//
// Pipelining: events of frame t+1 may be submitted while frame t is still
// matching. ServiceOptions::pipeline_depth bounds how many complete
// frames may wait for the matcher; submitting a barrier beyond that waits
// (with counted backpressure) until the matcher catches up, which keeps
// worst-case response latency bounded. ServiceOptions::ingest_capacity
// bounds the events one frame may carry: later events of that frame are
// dropped on arrival and the frame is answered with a rejection.
//
// Waiting is spin-then-park: a waiter polls for a few tens of
// microseconds, then blocks in std::atomic::wait, so an idle server uses
// no CPU. The matcher waits once per frame, keyed on "a frame is ready
// or the stream closed": producers wake it on each barrier and on
// close(), never per event, so it sleeps while a frame streams in. The
// matcher wakes producers each time it takes a frame out of the window.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "core/dispatch_config.h"
#include "geo/distance_oracle.h"
#include "service/api.h"
#include "service/session.h"

namespace o2o::service {

class StreamingService {
 public:
  StreamingService(std::string_view kind, DispatchConfig config,
                   const geo::DistanceOracle& oracle);

  const DispatchSession& session() const noexcept { return session_; }

  /// Producer side, any thread. Orders and drivers join the open frame at
  /// once. A barrier closes it: submit() waits while pipeline_depth
  /// complete frames already wait for the matcher; try_submit() returns
  /// false instead and leaves the frame open.
  ///
  /// submit(api::RideEvent&&) moves the event in. A moved driver event
  /// comes back holding a driver of a served frame (unspecified contents)
  /// whose vectors keep their capacity, so a reader that decodes every
  /// line into one event (decode_event_into) and submits it with
  /// std::move cycles driver buffers between itself and the frames
  /// instead of allocating them. submit(const api::RideEvent&) takes a
  /// copy through the same path.
  void submit(api::RideEvent&& event);
  void submit(const api::RideEvent& event);
  bool try_submit(api::RideEvent event);

  /// Producer side: no further events will be submitted. Wakes a matcher
  /// blocked in next_response(); events after the last barrier are dropped.
  void close();

  /// Matcher side, one thread. Blocks until a complete frame is
  /// available and answers it: the dispatch response, or, for a frame
  /// that carried more than ingest_capacity events or fails
  /// DispatchSession::validate, a response holding only the frame number
  /// and a non-empty `reject_reason` (nothing dispatched).
  /// Returns nullopt once the stream is closed and fully drained.
  std::optional<api::FrameResponse> next_answer();

  /// next_answer() without the rejections: skips rejected frames and
  /// returns the next dispatch response (or nullopt at the end).
  std::optional<api::FrameResponse> next_response();

 private:
  /// One frame's events, plus how many arrived past ingest_capacity.
  struct Frame {
    api::FrameRequest request;
    std::size_t dropped = 0;
    /// While the frame is open: drivers of an earlier, served frame,
    /// handed back to producers one per driver event they submit.
    std::vector<api::Driver> spare_drivers;
  };

  bool accept(api::RideEvent& event, bool blocking);
  /// Matcher side: moves the next complete frame into current_, waiting
  /// while none is ready; false once the stream is closed and drained.
  bool take_frame();

  DispatchSession session_;
  const std::size_t pipeline_depth_;
  const std::size_t frame_capacity_;

  // Guarded by mutex_.
  std::mutex mutex_;
  Frame open_;                ///< the frame producers are filling
  std::deque<Frame> ready_;   ///< complete frames, oldest first
  std::vector<Frame> spare_;  ///< served frames whose buffers get reused,
                              ///< their drivers included
  bool closed_ = false;

  // Wake-up counters for spin_then_park (service.cpp): frame_ready_ is
  // bumped on every barrier and on close, space_freed_ on every take.
  std::atomic<std::uint32_t> frame_ready_{0};
  std::atomic<std::uint32_t> space_freed_{0};

  // Matcher thread only.
  Frame current_;  ///< the frame being answered
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
