#include "service/service.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "obs/obs.h"

namespace o2o::service {

namespace {

// How long a waiter keeps polling before it parks. Measured on perfbench's
// three workloads (4-vCPU x86-64 VM): over 99.8 % of the gaps between two
// events of one frame are under 20 us and 0.09-0.22 a frame reach 50 us,
// so with 50 us the matcher parks 1.1-1.2 times a frame, nearly always
// between frames; 20 us would add 1.0-1.6 parks a frame. Calling
// atomic::wait at once is no substitute: libstdc++ spins only 16 rounds
// in it, and registers as a waiter first, so every notify during that
// spin is a futex syscall. On ny-rush-nstd that made 1,700 wait calls and
// 29 sleeps a frame and lost five of five pairs by 0.4-1.1 ms of
// frame_ms_p50 (EXPERIMENTS.md "Single-pass codec and parked waits").
constexpr auto kSpinBeforePark = std::chrono::microseconds(50);

/// Waits until `ready()` holds: polls for kSpinBeforePark, then blocks in
/// atomic::wait. `signal` is a wake-up counter that whoever can make
/// `ready()` true bumps through wake(). It is read before each check, so a
/// bump landing after a failed check makes the wait return at once.
template <typename Ready>
void spin_then_park(const std::atomic<std::uint32_t>& signal, Ready&& ready) {
  std::chrono::steady_clock::time_point park_at{};
  for (;;) {
    const std::uint32_t seen = signal.load(std::memory_order_acquire);
    if (ready()) return;
    const auto now = std::chrono::steady_clock::now();
    if (park_at == std::chrono::steady_clock::time_point{}) park_at = now + kSpinBeforePark;
    if (now < park_at) {
      std::this_thread::yield();
    } else {
      signal.wait(seen, std::memory_order_acquire);
    }
  }
}

/// libstdc++'s notify makes no syscall while no thread waits on the
/// address, so waking costs one atomic add on the hot path.
void wake(std::atomic<std::uint32_t>& signal, bool all) {
  signal.fetch_add(1, std::memory_order_release);
  if (all) {
    signal.notify_all();
  } else {
    signal.notify_one();
  }
}

}  // namespace

StreamingService::StreamingService(std::string_view kind, DispatchConfig config,
                                   const geo::DistanceOracle& oracle)
    : session_(kind, config, oracle),
      queue_(config.service().ingest_capacity),
      pipeline_depth_(config.service().pipeline_depth) {}

bool StreamingService::push_with_backpressure(const api::RideEvent& event,
                                              bool blocking) {
  // A barrier closes a frame: hold it back while pipeline_depth complete
  // frames already sit in the ring unmatched, so producers can't run
  // arbitrarily far ahead of the matcher. The slot is reserved with
  // fetch_add *before* the push (undone on overshoot) so concurrent
  // producers can never jointly exceed the window.
  const bool is_barrier = event.kind == api::RideEvent::Kind::kEndFrame;
  // Even a failed reservation holds a slot for a moment, and a concurrent
  // barrier that saw it may have parked: whoever brings the count back
  // under the window wakes the parked producers.
  const auto release_frame = [this] {
    if (frames_in_flight_.fetch_sub(1, std::memory_order_acq_rel) == pipeline_depth_) {
      wake(space_freed_, /*all=*/true);
    }
  };
  const auto reserve_frame = [&] {
    if (frames_in_flight_.fetch_add(1, std::memory_order_acq_rel) < pipeline_depth_) {
      return true;
    }
    release_frame();
    return false;
  };
  bool waited = false;
  if (is_barrier && !reserve_frame()) {
    if (!blocking) return false;
    waited = true;
    spin_then_park(space_freed_, reserve_frame);
  }
  if (!queue_.try_push(event)) {
    if (!blocking) {
      if (is_barrier) release_frame();
      return false;
    }
    waited = true;
    spin_then_park(space_freed_, [&] { return queue_.try_push(event); });
  }
  if (waited) obs::add(obs::Counter::kIngestBackpressure);
  wake(event_pushed_, /*all=*/false);
  return true;
}

void StreamingService::submit(const api::RideEvent& event) {
  push_with_backpressure(event, /*blocking=*/true);
}

bool StreamingService::try_submit(const api::RideEvent& event) {
  return push_with_backpressure(event, /*blocking=*/false);
}

void StreamingService::close() {
  closed_.store(true, std::memory_order_release);
  wake(event_pushed_, /*all=*/false);
}

bool StreamingService::pop_event(api::RideEvent& event) {
  bool drained = false;
  if (!queue_.try_pop(event)) {
    spin_then_park(event_pushed_, [&] {
      if (queue_.try_pop(event)) return true;
      if (!closed_.load(std::memory_order_acquire)) return false;
      // Closed. Events pushed between the failed pop and the close flag
      // must still be drained -- only an empty ring ends the stream (a
      // partial frame with no barrier is dropped: no barrier, no
      // snapshot).
      drained = !queue_.try_pop(event);
      return true;
    });
  }
  if (drained) return false;
  wake(space_freed_, /*all=*/true);
  return true;
}

std::optional<api::FrameResponse> StreamingService::next_response() {
  obs::TraceSink* sink = obs::active_sink();
  // Ingest metrics are buffered locally and reported only after
  // begin_frame: the sink zeroes every thread's cells at frame start, so
  // anything recorded before the barrier would be wiped. The buffers
  // accumulate across rejected frames so no ingest work goes uncounted.
  std::uint64_t ingest_ns = 0;
  std::uint64_t events_drained = 0;
  std::uint64_t frames_rejected = 0;
  std::size_t depth_peak = queue_.approx_depth();
  for (;;) {
    std::optional<api::FrameRequest> request;
    {
      obs::ScopedTimer timer(ingest_ns);
      api::RideEvent event;
      while (!request) {
        if (!pop_event(event)) return std::nullopt;
        ++events_drained;
        switch (event.kind) {
          case api::RideEvent::Kind::kOrder:
            open_orders_.push_back(std::move(event.order));
            break;
          case api::RideEvent::Kind::kDriver:
            open_drivers_.push_back(std::move(event.driver));
            break;
          case api::RideEvent::Kind::kEndFrame:
            request.emplace();
            request->frame = event.frame;
            request->timestamp = event.timestamp;
            request->orders = std::move(open_orders_);
            request->drivers = std::move(open_drivers_);
            open_orders_.clear();
            open_drivers_.clear();
            break;
        }
      }
    }

    // The frame left the ring: producers may push the next barrier.
    frames_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    wake(space_freed_, /*all=*/true);

    // Frames that violate the api contract (duplicate ids, out-of-range
    // seat values) cross a trust boundary in --stdio/--tcp mode: drop
    // them here, before the trace sink opens the frame, and keep serving.
    std::string reject_reason;
    if (!DispatchSession::validate(*request, &reject_reason)) {
      ++frames_rejected;
      continue;
    }

    if (sink != nullptr) sink->begin_frame(request->frame, request->timestamp);
    obs::add_stage_ns(obs::Stage::kIngest, ingest_ns);
    obs::add(obs::Counter::kEventsIngested, events_drained);
    if (frames_rejected != 0) obs::add(obs::Counter::kFramesRejected, frames_rejected);
    obs::gauge_max(obs::Gauge::kQueueDepthPeak, depth_peak);
    std::optional<api::FrameResponse> response = session_.dispatch(*request);
    obs::add(obs::Counter::kFramesStreamed);
    if (sink != nullptr) {
      std::uint64_t idle = 0;
      for (const api::Driver& driver : request->drivers) idle += driver.idle() ? 1 : 0;
      sink->set_frame_context(idle, request->drivers.size() - idle,
                              request->orders.size());
      std::uint64_t assigned = 0;
      for (const api::Assignment& a : response->assignments) {
        assigned += a.order_ids.size();
      }
      sink->add_assignments(assigned);
      sink->end_frame();
    }
    return response;
  }
}

}  // namespace o2o::service
