// A small reusable worker pool for data-parallel loops on the dispatch
// hot path (per-request preference rows, per-unit sharing scores). The
// pool is deliberately minimal: persistent workers, a FIFO of helper
// slots, and a blocking parallel_for in which the calling thread
// participates, so a pool of zero workers degrades to the serial loop.
//
// parallel_for distributes indices dynamically (atomic cursor), so the
// caller must make iterations independent; determinism is the caller's
// job and is achieved by writing to disjoint, preallocated slots, or to
// per-lane buffers (current_lane()) the caller merges in index order.
//
// A warm parallel_for allocates nothing: the call's state lives on the
// caller's stack and the helper queue keeps its capacity.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace o2o {

class ThreadPool {
 public:
  /// Spawns exactly `workers` threads (0 is valid: every parallel_for
  /// then runs inline on the calling thread).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return threads_.size(); }
  /// Lanes one parallel_for body may run on: the calling thread plus
  /// every worker. current_lane() is always below this.
  std::size_t lane_count() const noexcept { return threads_.size() + 1; }

  /// Process-wide pool, built on first use with the worker count set by
  /// set_shared_worker_count, else sized to the hardware (cores - 1
  /// workers, capped, so the calling thread is the remaining lane).
  static ThreadPool& shared();

  /// Sizes the shared pool before its first use. Returns false, changing
  /// nothing, once shared() has built it.
  static bool set_shared_worker_count(std::size_t workers);

  /// The lane of the parallel_for body running on this thread: 0 on the
  /// thread that called parallel_for, i + 1 on the call's helper i, and 0
  /// outside any body. Within one call no two threads share a lane, so a
  /// body may append to a caller-owned buffer indexed by its lane.
  static std::size_t current_lane() noexcept;

  /// Calls body(i) for every i in [begin, end), spreading chunks of
  /// `grain` consecutive indices over the workers plus the calling
  /// thread. Blocks until the whole range is done. The first exception
  /// thrown by any iteration is rethrown on the caller after the range
  /// is abandoned.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Job;

  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable wake_;
  /// One entry per helper slot still waiting for a worker, oldest at
  /// queue_head_. Guarded by mutex_.
  std::vector<Job*> queue_;
  std::size_t queue_head_ = 0;
  bool stopping_ = false;
};

}  // namespace o2o
