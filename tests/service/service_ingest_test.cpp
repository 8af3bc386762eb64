// StreamingService's frame handoff: producers build the open frame, the
// barrier closes it into a bounded window, and the matcher takes whole
// frames. Arrival order inside a frame must not change the match; the
// threaded tests double as the TSan proof of the handoff, and the CPU
// tests check that a waiting matcher sleeps instead of spinning.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <ctime>
#include <thread>
#include <utility>
#include <vector>

#include "core/dispatch_config.h"
#include "geo/distance_oracle.h"
#include "obs/obs.h"
#include "service/api.h"
#include "service/codec.h"
#include "service/service.h"

namespace o2o::service {
namespace {

// ---------------------------------------------------------------------------
// StreamingService barrier semantics.
// ---------------------------------------------------------------------------

const geo::EuclideanOracle kOracle;

api::RideEvent order_event(std::int32_t id, double x, double y) {
  api::Order order;
  order.order_id = id;
  order.timestamp = static_cast<double>(id);  // before every frame's stamp (>= 60 s)
  order.start = {x, y};
  order.finish = {x + 2.0, y + 2.0};
  return api::RideEvent::make_order(order);
}

api::RideEvent driver_event(std::int32_t id, double x, double y) {
  api::Driver driver;
  driver.driver_id = id;
  driver.location = {x, y};
  return api::RideEvent::make_driver(driver);
}

std::vector<api::RideEvent> frame_events() {
  return {order_event(1, 0.0, 0.0),  order_event(2, 4.0, 4.0),
          order_event(3, -3.0, 1.0), driver_event(10, 0.5, 0.5),
          driver_event(11, 4.5, 4.0), driver_event(12, -2.0, 0.0)};
}

api::FrameResponse serve_one_frame(std::vector<api::RideEvent> events) {
  const DispatchConfig config =
      DispatchConfig{}.with_passenger_threshold_km(10.0).with_taxi_threshold_score(1.0);
  StreamingService service("nstd-p", config, kOracle);
  for (const api::RideEvent& event : events) service.submit(event);
  service.submit(api::RideEvent::make_end_frame(0, 60.0));
  const auto response = service.next_response();
  EXPECT_TRUE(response.has_value());
  return response.value_or(api::FrameResponse{});
}

TEST(StreamingService, ArrivalOrderDoesNotChangeTheMatch) {
  std::vector<api::RideEvent> forward = frame_events();
  std::vector<api::RideEvent> shuffled = frame_events();
  std::reverse(shuffled.begin(), shuffled.end());
  std::vector<api::RideEvent> interleaved = {forward[3], forward[0], forward[4],
                                             forward[1], forward[5], forward[2]};

  const api::FrameResponse a = serve_one_frame(forward);
  const api::FrameResponse b = serve_one_frame(shuffled);
  const api::FrameResponse c = serve_one_frame(interleaved);
  EXPECT_FALSE(a.assignments.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(StreamingService, PipelineDepthHoldsBackExtraBarriers) {
  const DispatchConfig config = DispatchConfig{}
                                    .with_passenger_threshold_km(10.0)
                                    .with_taxi_threshold_score(1.0)
                                    .with_pipeline_depth(1);
  StreamingService service("nstd-p", config, kOracle);
  service.submit(order_event(1, 0.0, 0.0));
  service.submit(driver_event(10, 0.5, 0.5));
  ASSERT_TRUE(service.try_submit(api::RideEvent::make_end_frame(0, 60.0)));
  // One complete frame is already in flight: a second barrier must wait.
  EXPECT_FALSE(service.try_submit(api::RideEvent::make_end_frame(1, 120.0)));
  const auto first = service.next_response();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->frame, 0u);
  // The matcher caught up: the window reopens.
  EXPECT_TRUE(service.try_submit(api::RideEvent::make_end_frame(1, 120.0)));
  const auto second = service.next_response();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->frame, 1u);
  EXPECT_TRUE(second->assignments.empty());
}

TEST(StreamingService, CloseDrainsBufferedFramesThenEnds) {
  const DispatchConfig config = DispatchConfig{}
                                    .with_passenger_threshold_km(10.0)
                                    .with_taxi_threshold_score(1.0)
                                    .with_pipeline_depth(4);
  StreamingService service("nstd-p", config, kOracle);
  for (std::uint64_t frame = 0; frame < 3; ++frame) {
    service.submit(order_event(static_cast<std::int32_t>(frame + 1), 0.0, 0.0));
    service.submit(driver_event(static_cast<std::int32_t>(frame + 10), 0.5, 0.5));
    service.submit(
        api::RideEvent::make_end_frame(frame, 60.0 * static_cast<double>(frame + 1)));
  }
  service.close();
  for (std::uint64_t frame = 0; frame < 3; ++frame) {
    const auto response = service.next_response();
    ASSERT_TRUE(response.has_value()) << "frame " << frame;
    EXPECT_EQ(response->frame, frame);
  }
  EXPECT_FALSE(service.next_response().has_value());
  // A drained+closed service stays ended.
  EXPECT_FALSE(service.next_response().has_value());
}

// Duplicate ids arrive over the wire in --stdio/--tcp mode: the frame
// must be dropped and the service must keep answering later frames, not
// abort the process.
TEST(StreamingService, DuplicateIdFramesAreDroppedNotFatal) {
  const DispatchConfig config = DispatchConfig{}
                                    .with_passenger_threshold_km(10.0)
                                    .with_taxi_threshold_score(1.0)
                                    .with_pipeline_depth(4);
  StreamingService service("nstd-p", config, kOracle);

  // Frame 0: the same order_id twice (different timestamps/locations).
  service.submit(order_event(1, 0.0, 0.0));
  service.submit(order_event(1, 3.0, 3.0));
  service.submit(driver_event(10, 0.5, 0.5));
  service.submit(api::RideEvent::make_end_frame(0, 60.0));
  // Frame 1: duplicate driver_id.
  service.submit(order_event(2, 0.0, 0.0));
  service.submit(driver_event(10, 0.5, 0.5));
  service.submit(driver_event(10, 4.0, 4.0));
  service.submit(api::RideEvent::make_end_frame(1, 120.0));
  // Frame 2 is clean and must still be served.
  service.submit(order_event(3, 0.0, 0.0));
  service.submit(driver_event(11, 0.5, 0.5));
  service.submit(api::RideEvent::make_end_frame(2, 180.0));
  service.close();

  const auto response = service.next_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->frame, 2u);
  EXPECT_EQ(response->assignments.size(), 1u);
  EXPECT_FALSE(service.next_response().has_value());
}

// Out-of-range seat values are dropped the same way: the frame is
// rejected and counted, later frames are served.
TEST(StreamingService, OutOfRangeSeatFramesAreDroppedAndCounted) {
  const DispatchConfig config = DispatchConfig{}
                                    .with_passenger_threshold_km(10.0)
                                    .with_taxi_threshold_score(1.0)
                                    .with_pipeline_depth(4);
  StreamingService service("std-p", config, kOracle);
  obs::TraceSink sink;
  obs::Activation guard(sink);

  // Frame 0: an order asking for -3 seats.
  api::Order negative;
  negative.order_id = 1;
  negative.timestamp = 10.0;
  negative.finish = {2.0, 2.0};
  negative.seats = -3;
  service.submit(api::RideEvent::make_order(negative));
  service.submit(driver_event(10, 0.5, 0.5));
  service.submit(api::RideEvent::make_end_frame(0, 60.0));
  // Frame 1: a driver with more seats in use than it has.
  api::Driver overfull;
  overfull.driver_id = 11;
  overfull.location = {0.5, 0.5};
  overfull.seats = 4;
  overfull.seats_in_use = 6;
  overfull.route = {api::DriverStop{50, false, {1.0, 1.0}}};
  overfull.onboard = {50};
  overfull.route_seats = {{50, 6}};
  service.submit(order_event(2, 0.0, 0.0));
  service.submit(api::RideEvent::make_driver(overfull));
  service.submit(api::RideEvent::make_end_frame(1, 120.0));
  // Frame 2 is clean and must still be served.
  service.submit(order_event(3, 0.0, 0.0));
  service.submit(driver_event(12, 0.5, 0.5));
  service.submit(api::RideEvent::make_end_frame(2, 180.0));
  service.close();

  const auto response = service.next_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->frame, 2u);
  EXPECT_EQ(response->assignments.size(), 1u);
  EXPECT_FALSE(service.next_response().has_value());
  // Both rejections are reported with the frame that follows them.
  ASSERT_EQ(sink.frames_recorded(), 1u);
  EXPECT_EQ(sink.aggregate().counters[static_cast<std::size_t>(obs::Counter::kFramesRejected)],
            2u);
}

// next_answer() answers a rejected frame instead of skipping it, so a
// closed-loop client waiting on that frame hears back; the rejection is
// still counted with the next dispatched frame.
TEST(StreamingService, RejectedFramesAreAnsweredByNextAnswer) {
  const DispatchConfig config = DispatchConfig{}
                                    .with_passenger_threshold_km(10.0)
                                    .with_taxi_threshold_score(1.0)
                                    .with_pipeline_depth(4);
  StreamingService service("std-p", config, kOracle);
  obs::TraceSink sink;
  obs::Activation guard(sink);

  api::Driver seatless;
  seatless.driver_id = 7;
  seatless.location = {0.5, 0.5};
  seatless.seats = 0;
  service.submit(order_event(1, 0.0, 0.0));
  service.submit(api::RideEvent::make_driver(seatless));
  service.submit(api::RideEvent::make_end_frame(0, 60.0));
  service.submit(order_event(3, 0.0, 0.0));
  service.submit(driver_event(7, 0.5, 0.5));
  service.submit(api::RideEvent::make_end_frame(1, 120.0));
  service.close();

  const auto rejected = service.next_answer();
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->frame, 0u);
  EXPECT_FALSE(rejected->reject_reason.empty());
  EXPECT_TRUE(rejected->assignments.empty());
  EXPECT_EQ(sink.frames_recorded(), 0u);
  const auto served = service.next_answer();
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->frame, 1u);
  EXPECT_TRUE(served->reject_reason.empty());
  EXPECT_EQ(served->assignments.size(), 1u);
  EXPECT_FALSE(service.next_answer().has_value());
  ASSERT_EQ(sink.frames_recorded(), 1u);
  EXPECT_EQ(sink.aggregate().counters[static_cast<std::size_t>(obs::Counter::kFramesRejected)],
            1u);
}

// A frame whose timestamp goes backwards never reaches dispatch(): it is
// counted as rejected and the next in-order frame is answered.
TEST(StreamingService, BackwardTimestampFramesAreDroppedAndCounted) {
  const DispatchConfig config = DispatchConfig{}
                                    .with_passenger_threshold_km(10.0)
                                    .with_taxi_threshold_score(1.0)
                                    .with_pipeline_depth(4);
  StreamingService service("nstd-p", config, kOracle);
  obs::TraceSink sink;
  obs::Activation guard(sink);

  for (const auto& [frame, timestamp] :
       {std::pair<std::uint64_t, double>{0, 60.0}, {1, 10.0}, {2, 120.0}}) {
    service.submit(order_event(static_cast<std::int32_t>(frame + 1), 0.0, 0.0));
    service.submit(driver_event(10, 0.5, 0.5));
    service.submit(api::RideEvent::make_end_frame(frame, timestamp));
  }
  service.close();

  auto response = service.next_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->frame, 0u);
  response = service.next_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->frame, 2u);
  EXPECT_EQ(response->assignments.size(), 1u);
  EXPECT_FALSE(service.next_response().has_value());
  // The rejection is reported with the frame that follows it.
  ASSERT_EQ(sink.frames_recorded(), 2u);
  EXPECT_EQ(sink.aggregate().counters[static_cast<std::size_t>(obs::Counter::kFramesRejected)],
            1u);
}

// A producer thread streams frames while the matcher answers them —
// pipelined ingest under TSan exercises the full submit/drain protocol.
TEST(StreamingService, ThreadedProducerAndMatcherAgree) {
  const DispatchConfig config = DispatchConfig{}
                                    .with_passenger_threshold_km(10.0)
                                    .with_taxi_threshold_score(1.0)
                                    .with_pipeline_depth(2)
                                    .with_ingest_capacity(64);
  StreamingService service("nstd-p", config, kOracle);
  constexpr std::uint64_t kFrames = 40;

  std::thread producer([&service] {
    for (std::uint64_t frame = 0; frame < kFrames; ++frame) {
      for (int i = 0; i < 8; ++i) {
        service.submit(order_event(static_cast<std::int32_t>(i + 1),
                                   static_cast<double>(i), 0.0));
      }
      for (int i = 0; i < 8; ++i) {
        service.submit(driver_event(static_cast<std::int32_t>(i + 100),
                                    static_cast<double>(i), 0.25));
      }
      service.submit(
          api::RideEvent::make_end_frame(frame, 60.0 * static_cast<double>(frame + 1)));
    }
    service.close();
  });

  std::uint64_t answered = 0;
  api::FrameResponse first_response;
  while (const auto response = service.next_response()) {
    EXPECT_EQ(response->frame, answered);
    if (answered == 0) {
      first_response = *response;
      EXPECT_FALSE(response->assignments.empty());
    } else {
      // Identical frames must match identically, every time.
      EXPECT_EQ(response->assignments, first_response.assignments);
    }
    ++answered;
  }
  producer.join();
  EXPECT_EQ(answered, kFrames);
}

// One producer blocks on every barrier while another only tries, at
// depth 1: every accepted barrier must come out as a frame, and nothing
// may hang: a parked blocking barrier must be woken by the matcher's
// take, whichever producer filled the window.
TEST(StreamingService, TryAndBlockingBarriersShareTheWindow) {
  const DispatchConfig config = DispatchConfig{}
                                    .with_passenger_threshold_km(10.0)
                                    .with_taxi_threshold_score(1.0)
                                    .with_pipeline_depth(1);
  StreamingService service("nstd-p", config, kOracle);
  constexpr std::uint64_t kBlockingFrames = 500;
  std::atomic<bool> blocking_done{false};
  std::uint64_t tried_frames = 0;

  std::thread blocking([&] {
    for (std::uint64_t frame = 0; frame < kBlockingFrames; ++frame) {
      service.submit(api::RideEvent::make_end_frame(frame, 60.0));
    }
    blocking_done.store(true);
  });
  std::thread trying([&] {
    while (!blocking_done.load()) {
      if (service.try_submit(api::RideEvent::make_end_frame(kBlockingFrames, 60.0))) {
        ++tried_frames;
      }
      std::this_thread::yield();
    }
  });

  std::uint64_t answered = 0;
  std::thread closer([&] {
    blocking.join();
    trying.join();
    service.close();
  });
  while (service.next_response()) ++answered;
  closer.join();
  EXPECT_EQ(answered, kBlockingFrames + tried_frames);
}

double thread_cpu_ms() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 + static_cast<double>(now.tv_nsec) * 1e-6;
}

// An idle server must use close to zero CPU: a matcher blocked in
// next_response() parks instead of spinning, and close() wakes it.
TEST(StreamingService, IdleMatcherParksInsteadOfSpinning) {
  const DispatchConfig config =
      DispatchConfig{}.with_passenger_threshold_km(10.0).with_taxi_threshold_score(1.0);
  StreamingService service("nstd-p", config, kOracle);
  double matcher_cpu_ms = -1.0;
  std::thread matcher([&] {
    const double start = thread_cpu_ms();
    EXPECT_FALSE(service.next_response().has_value());
    matcher_cpu_ms = thread_cpu_ms() - start;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  service.close();
  matcher.join();
  // Under 10 % of one core over the 300 ms.
  EXPECT_GE(matcher_cpu_ms, 0.0);
  EXPECT_LT(matcher_cpu_ms, 30.0);
}

// The matcher waits once per frame: while a frame's events trickle in, it
// sleeps until the barrier instead of polling after every event.
TEST(StreamingService, MatcherSleepsWhileAFrameStreamsIn) {
  const DispatchConfig config =
      DispatchConfig{}.with_passenger_threshold_km(10.0).with_taxi_threshold_score(1.0);
  StreamingService service("nstd-p", config, kOracle);
  double matcher_cpu_ms = -1.0;
  std::thread matcher([&] {
    const double start = thread_cpu_ms();
    EXPECT_TRUE(service.next_response().has_value());
    matcher_cpu_ms = thread_cpu_ms() - start;
  });
  // About 2,000 events 100 us apart. One far-away driver keeps the
  // dispatch cheap, so the matcher's CPU is its waiting, also under TSan.
  const auto stream_start = std::chrono::steady_clock::now();
  service.submit(driver_event(1, 1e6, 1e6));
  for (std::int32_t i = 2; i <= 2000; ++i) {
    service.submit(order_event(i, 0.01 * static_cast<double>(i), 0.0));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double stream_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - stream_start)
                               .count();
  service.submit(api::RideEvent::make_end_frame(0, 1e4));
  matcher.join();
  EXPECT_GE(matcher_cpu_ms, 0.0);
  EXPECT_LT(matcher_cpu_ms, 0.1 * stream_ms) << "stream took " << stream_ms << " ms";
}

// Several producers fill one frame at once: no event is lost.
TEST(StreamingService, ConcurrentProducersFillOneFrame) {
  const DispatchConfig config =
      DispatchConfig{}.with_passenger_threshold_km(10.0).with_taxi_threshold_score(1.0);
  StreamingService service("nstd-p", config, kOracle);
  obs::TraceSink sink;
  obs::Activation guard(sink);
  constexpr std::int32_t kProducers = 4;
  constexpr std::int32_t kPerProducer = 500;

  std::vector<std::thread> producers;
  for (std::int32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, p] {
      for (std::int32_t i = 1; i <= kPerProducer; ++i) {
        service.submit(order_event(p * kPerProducer + i, static_cast<double>(p), 0.0));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  service.submit(api::RideEvent::make_end_frame(0, 1e4));
  const auto response = service.next_answer();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->reject_reason.empty()) << response->reject_reason;
  ASSERT_EQ(sink.frames_recorded(), 1u);
  EXPECT_EQ(sink.aggregate().counters[static_cast<std::size_t>(obs::Counter::kEventsIngested)],
            static_cast<std::uint64_t>(kProducers * kPerProducer + 1));
}

// Frames reuse the buffers of served ones: a small frame after a large
// one must carry only its own events, and answer as a fresh service does.
// Events reach the recycling service the way o2o_serve's reader sends
// them: decoded into one reused event and moved in, so driver events come
// back holding a served frame's driver.
TEST(StreamingService, RecycledFramesCarryNoLeftovers) {
  const DispatchConfig config =
      DispatchConfig{}.with_passenger_threshold_km(10.0).with_taxi_threshold_score(1.0);
  StreamingService service("nstd-p", config, kOracle);
  for (std::int32_t i = 0; i < 100; ++i) {
    service.submit(order_event(100 + i, 0.01 * static_cast<double>(i), 0.0));
    service.submit(driver_event(1000 + i, 0.01 * static_cast<double>(i), 0.3));
  }
  service.submit(api::RideEvent::make_end_frame(0, 600.0));
  const auto large = service.next_response();
  ASSERT_TRUE(large.has_value());
  ASSERT_GT(large->assignments.size(), 3u);

  // Enough frames that one is built in the large frame's buffers.
  api::RideEvent reused;
  for (std::uint64_t frame = 1; frame <= 3; ++frame) {
    const double timestamp = 600.0 + 60.0 * static_cast<double>(frame);
    StreamingService fresh("nstd-p", config, kOracle);
    for (const api::RideEvent& event : frame_events()) {
      ASSERT_TRUE(decode_event_into(encode_event(event), reused));
      service.submit(std::move(reused));
      fresh.submit(event);
    }
    service.submit(api::RideEvent::make_end_frame(frame, timestamp));
    fresh.submit(api::RideEvent::make_end_frame(frame, timestamp));
    const auto served = service.next_response();
    const auto expected = fresh.next_response();
    ASSERT_TRUE(served.has_value()) << "frame " << frame;
    ASSERT_TRUE(expected.has_value()) << "frame " << frame;
    EXPECT_EQ(*served, *expected) << "frame " << frame;
  }
}

// ingest_capacity bounds one frame's events: the rest are dropped on
// arrival, the frame is rejected with a reason, and the next is served.
TEST(StreamingService, OversizedFramesAreRejectedAndTheNextIsServed) {
  const DispatchConfig config = DispatchConfig{}
                                    .with_passenger_threshold_km(10.0)
                                    .with_taxi_threshold_score(1.0)
                                    .with_pipeline_depth(4)
                                    .with_ingest_capacity(8);
  StreamingService service("nstd-p", config, kOracle);
  for (std::int32_t i = 1; i <= 6; ++i) {
    service.submit(order_event(i, static_cast<double>(i), 0.0));
    service.submit(driver_event(100 + i, static_cast<double>(i), 0.5));
  }
  service.submit(api::RideEvent::make_end_frame(0, 60.0));
  for (const api::RideEvent& event : frame_events()) service.submit(event);
  service.submit(api::RideEvent::make_end_frame(1, 120.0));
  service.close();

  const auto rejected = service.next_answer();
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->frame, 0u);
  EXPECT_EQ(rejected->reject_reason.rfind("oversized frame 0", 0), 0u)
      << rejected->reject_reason;
  EXPECT_NE(rejected->reject_reason.find("ingest_capacity = 8"), std::string::npos)
      << rejected->reject_reason;
  EXPECT_TRUE(rejected->assignments.empty());
  const auto served = service.next_answer();
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->frame, 1u);
  EXPECT_TRUE(served->reject_reason.empty()) << served->reject_reason;
  EXPECT_FALSE(served->assignments.empty());
  EXPECT_FALSE(service.next_answer().has_value());
}

}  // namespace
}  // namespace o2o::service
