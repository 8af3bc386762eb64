// The lock-free ingestion ring: FIFO per producer, wraparound, full/empty
// edges, and a multi-producer hammer that doubles as the TSan proof of
// the acquire/release stamp protocol. Plus the StreamingService frame
// barrier: arrival order inside a frame must not change the match.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <thread>
#include <vector>

#include "core/dispatch_config.h"
#include "geo/distance_oracle.h"
#include "obs/obs.h"
#include "service/api.h"
#include "service/ingest.h"
#include "service/service.h"

namespace o2o::service {
namespace {

TEST(IngestQueue, FifoOrder) {
  IngestQueue<int> queue(128);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(queue.try_push(i));
  int value = -1;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.try_pop(value));
    EXPECT_EQ(value, i);
  }
  EXPECT_FALSE(queue.try_pop(value));
}

TEST(IngestQueue, WrapAroundKeepsOrder) {
  IngestQueue<int> queue(8);
  int next_in = 0;
  int next_out = 0;
  // Push/pop in bursts so the ring wraps many times.
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.try_push(next_in++));
    int value = -1;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(queue.try_pop(value));
      EXPECT_EQ(value, next_out++);
    }
  }
}

TEST(IngestQueue, FullRingRejectsUntilDrained) {
  IngestQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(i));
  EXPECT_FALSE(queue.try_push(99));
  int value = -1;
  ASSERT_TRUE(queue.try_pop(value));
  EXPECT_EQ(value, 0);
  EXPECT_TRUE(queue.try_push(99));
  std::vector<int> rest;
  while (queue.try_pop(value)) rest.push_back(value);
  EXPECT_EQ(rest, (std::vector<int>{1, 2, 3, 99}));
}

TEST(IngestQueue, ApproxDepthTracksOccupancy) {
  IngestQueue<int> queue(16);
  EXPECT_EQ(queue.approx_depth(), 0u);
  for (int i = 0; i < 10; ++i) queue.try_push(i);
  EXPECT_EQ(queue.approx_depth(), 10u);
  int value = -1;
  for (int i = 0; i < 4; ++i) queue.try_pop(value);
  EXPECT_EQ(queue.approx_depth(), 6u);
}

// Multi-producer hammer: N threads each push a tagged ascending sequence
// through a deliberately tiny ring while the main thread drains. Checks
// no loss, no duplication, and per-producer FIFO. Run under TSan this is
// the data-race proof for the stamp protocol.
TEST(IngestQueue, MultiProducerNoLossNoDupPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr std::uint32_t kPerProducer = 20000;
  IngestQueue<std::uint32_t> queue(64);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        const std::uint32_t tagged = (static_cast<std::uint32_t>(p) << 24) | i;
        while (!queue.try_push(tagged)) std::this_thread::yield();
      }
    });
  }

  std::vector<std::uint32_t> next_expected(kProducers, 0);
  std::uint64_t drained = 0;
  while (drained < static_cast<std::uint64_t>(kProducers) * kPerProducer) {
    std::uint32_t tagged = 0;
    if (!queue.try_pop(tagged)) {
      std::this_thread::yield();
      continue;
    }
    ++drained;
    const int producer = static_cast<int>(tagged >> 24);
    const std::uint32_t sequence = tagged & 0xFFFFFF;
    ASSERT_LT(producer, kProducers);
    // FIFO per producer: each producer's values arrive in push order.
    ASSERT_EQ(sequence, next_expected[producer]) << "producer " << producer;
    ++next_expected[producer];
  }
  for (std::thread& producer : producers) producer.join();

  std::uint32_t leftover = 0;
  EXPECT_FALSE(queue.try_pop(leftover));
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_expected[p], kPerProducer);
}

// ---------------------------------------------------------------------------
// StreamingService barrier semantics.
// ---------------------------------------------------------------------------

const geo::EuclideanOracle kOracle;

api::RideEvent order_event(std::int32_t id, double x, double y) {
  api::Order order;
  order.order_id = id;
  order.timestamp = 10.0 * id;
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
// may hang. A failed try still holds a window slot for a moment, and a
// blocking barrier that saw it may park; the give-back wakes it
// (service.cpp). Hitting that exact interleaving needs a preemption
// between two adjacent atomic operations, so this hammer guards the
// mixed protocol as a whole rather than reproducing the race.
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

// An idle server must use close to zero CPU: a matcher blocked in
// next_response() parks instead of spinning, and close() wakes it.
TEST(StreamingService, IdleMatcherParksInsteadOfSpinning) {
  const auto thread_cpu_ms = [] {
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) * 1e3 + static_cast<double>(now.tv_nsec) * 1e-6;
  };
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

}  // namespace
}  // namespace o2o::service
