#include "util/thread_pool.h"

#include <atomic>
#include <gtest/gtest.h>
#include <stdexcept>
#include <vector>

namespace o2o {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), /*grain=*/7, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ZeroWorkersRunInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  int sum = 0;
  // With no workers, the body runs on the caller, so unsynchronized
  // state is safe.
  pool.parallel_for(5, 10, 2, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 5 + 6 + 7 + 8 + 9);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(4, 4, 1, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionPropagatesToTheCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100, 1,
                                 [](std::size_t i) {
                                   if (i == 42) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(0, 50, 4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SharedPoolIsReusableAcrossCalls) {
  ThreadPool& pool = ThreadPool::shared();
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 200, 16, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 200);
  }
}

// Within one call no two threads run under the same lane at once, every
// lane is below lane_count(), and the caller is lane 0 outside a body.
TEST(ThreadPool, EachRunningBodyHasALaneOfItsOwn) {
  ThreadPool pool(3);
  ASSERT_EQ(pool.lane_count(), 4u);
  std::vector<std::atomic<int>> running(pool.lane_count());
  std::atomic<int> out_of_range{0};
  std::atomic<int> collisions{0};
  pool.parallel_for(0, 400, 1, [&](std::size_t) {
    const std::size_t lane = ThreadPool::current_lane();
    if (lane >= running.size()) {
      out_of_range.fetch_add(1);
      return;
    }
    if (running[lane].fetch_add(1) != 0) collisions.fetch_add(1);
    for (volatile int spin = 0; spin < 2000; spin = spin + 1) {
    }
    running[lane].fetch_sub(1);
  });
  EXPECT_EQ(out_of_range.load(), 0);
  EXPECT_EQ(collisions.load(), 0);
  EXPECT_EQ(ThreadPool::current_lane(), 0u);
}

TEST(ThreadPool, SharedPoolSizeIsFixedOnceBuilt) {
  (void)ThreadPool::shared();
  EXPECT_FALSE(ThreadPool::set_shared_worker_count(1));
}

}  // namespace
}  // namespace o2o
