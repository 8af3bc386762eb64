#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "obs/obs.h"

namespace o2o::service {

namespace {

// How long a waiter keeps polling before it parks. The matcher waits once
// a frame, and a frame's events take milliseconds to decode, so it nearly
// always parks and a barrier wakes it. A barrier that follows a frame
// within 50 us (a burst client, or the next frame already waiting)
// finds it still polling. Calling atomic::wait at once is no substitute:
// libstdc++ spins only 16 rounds in it, and registers as a waiter first,
// so every notify during that spin is a futex syscall (EXPERIMENTS.md
// "Single-pass codec and parked waits").
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
      pipeline_depth_(config.service().pipeline_depth),
      frame_capacity_(config.service().ingest_capacity) {}

bool StreamingService::accept(api::RideEvent& event, bool blocking) {
  if (event.kind != api::RideEvent::Kind::kEndFrame) {
    std::lock_guard lock(mutex_);
    api::FrameRequest& open = open_.request;
    if (open.orders.size() + open.drivers.size() >= frame_capacity_) {
      ++open_.dropped;  // bounded memory: the frame is rejected at its barrier
    } else if (event.kind == api::RideEvent::Kind::kOrder) {
      open.orders.push_back(std::move(event.order));
    } else {
      open.drivers.push_back(std::move(event.driver));
      if (!open_.spare_drivers.empty()) {
        event.driver = std::move(open_.spare_drivers.back());
        open_.spare_drivers.pop_back();
      }
    }
    return true;
  }
  // A barrier closes the open frame, unless pipeline_depth complete
  // frames already wait: producers can't run arbitrarily far ahead of
  // the matcher. The check and the hand-over share one critical section,
  // so concurrent barriers can never jointly exceed the window.
  const auto close_frame = [&] {
    std::lock_guard lock(mutex_);
    if (ready_.size() >= pipeline_depth_) return false;
    open_.request.frame = event.frame;
    open_.request.timestamp = event.timestamp;
    ready_.push_back(std::move(open_));
    // Reopen on a served frame's buffers, so their capacity survives. Its
    // drivers become the spares producers get back, and the emptied
    // spare array takes this frame's drivers.
    if (spare_.empty()) {
      open_ = {};
    } else {
      open_ = std::move(spare_.back());
      spare_.pop_back();
      open_.spare_drivers.clear();  // spares no producer took last time
      open_.spare_drivers.swap(open_.request.drivers);
    }
    return true;
  };
  if (!close_frame()) {
    if (!blocking) return false;
    spin_then_park(space_freed_, close_frame);
    obs::add(obs::Counter::kIngestBackpressure);
  }
  wake(frame_ready_, /*all=*/false);
  return true;
}

void StreamingService::submit(api::RideEvent&& event) { accept(event, /*blocking=*/true); }

void StreamingService::submit(const api::RideEvent& event) {
  api::RideEvent copy = event;
  accept(copy, /*blocking=*/true);
}

bool StreamingService::try_submit(api::RideEvent event) {
  return accept(event, /*blocking=*/false);
}

void StreamingService::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  wake(frame_ready_, /*all=*/false);
}

bool StreamingService::take_frame() {
  // The served frame keeps its drivers: they go back to producers when
  // the frame reopens (accept), so their vectors are never freed.
  current_.request.orders.clear();
  current_.dropped = 0;
  bool taken = false;
  spin_then_park(frame_ready_, [&] {
    std::lock_guard lock(mutex_);
    if (ready_.empty()) return closed_;  // closed and drained: the stream ends
    // Only this thread removes frames, so the queue is at its deepest
    // since the last take right now.
    pending_.depth_peak = std::max(pending_.depth_peak, ready_.size());
    spare_.push_back(std::move(current_));
    current_ = std::move(ready_.front());
    ready_.pop_front();
    taken = true;
    return true;
  });
  // The frame left the window: producers may close the next one.
  if (taken) wake(space_freed_, /*all=*/true);
  return taken;
}

std::optional<api::FrameResponse> StreamingService::next_response() {
  for (;;) {
    std::optional<api::FrameResponse> answer = next_answer();
    if (!answer || answer->reject_reason.empty()) return answer;
  }
}

std::optional<api::FrameResponse> StreamingService::next_answer() {
  obs::TraceSink* sink = obs::active_sink();
  // Ingest metrics are buffered in members and reported only after
  // begin_frame: the sink zeroes every thread's cells at frame start, so
  // anything recorded before the barrier would be wiped. The buffers
  // accumulate across rejected frames so no ingest work goes uncounted.
  {
    obs::ScopedTimer timer(pending_.ingest_ns);
    if (!take_frame()) return std::nullopt;
  }
  const api::FrameRequest& request = current_.request;
  pending_.events += request.orders.size() + request.drivers.size() + 1;

  // Frames that violate the api contract (too many events, duplicate
  // ids, out-of-range seat values, a timestamp earlier than the last
  // served frame's) cross a trust boundary in --stdio/--tcp mode: answer
  // them with the reason, before the trace sink opens a frame, and keep
  // serving.
  std::string reject_reason;
  if (current_.dropped != 0) {
    reject_reason = "oversized frame " + std::to_string(request.frame) +
                    ": more than ingest_capacity = " + std::to_string(frame_capacity_) +
                    " events (" + std::to_string(current_.dropped) + " dropped)";
  } else {
    session_.validate(request, &reject_reason);
  }
  if (!reject_reason.empty()) {
    ++pending_.rejected;
    api::FrameResponse rejected;
    rejected.frame = request.frame;
    rejected.reject_reason = std::move(reject_reason);
    return rejected;
  }

  if (sink != nullptr) sink->begin_frame(request.frame, request.timestamp);
  obs::add_stage_ns(obs::Stage::kIngest, pending_.ingest_ns);
  obs::add(obs::Counter::kEventsIngested, pending_.events);
  if (pending_.rejected != 0) obs::add(obs::Counter::kFramesRejected, pending_.rejected);
  obs::gauge_max(obs::Gauge::kQueueDepthPeak, pending_.depth_peak);
  pending_ = {};
  api::FrameResponse response = session_.dispatch_validated(request);
  obs::add(obs::Counter::kFramesStreamed);
  if (sink != nullptr) {
    std::uint64_t idle = 0;
    for (const api::Driver& driver : request.drivers) idle += driver.idle() ? 1 : 0;
    sink->set_frame_context(idle, request.drivers.size() - idle, request.orders.size());
    std::uint64_t assigned = 0;
    for (const api::Assignment& a : response.assignments) {
      assigned += a.order_ids.size();
    }
    sink->add_assignments(assigned);
    sink->end_frame();
  }
  return response;
}

}  // namespace o2o::service
