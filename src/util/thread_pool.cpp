#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>

namespace o2o {

namespace {

std::size_t default_worker_count() {
  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware <= 1) return 0;
  // Cap the shared pool: the hot loops are memory-bound well before 16
  // lanes, and the calling thread is always the extra lane.
  return std::min<std::size_t>(hardware - 1, 15);
}

std::mutex g_shared_config_mutex;
bool g_shared_built = false;                    // guarded by g_shared_config_mutex
std::optional<std::size_t> g_shared_workers;    // guarded by g_shared_config_mutex

thread_local std::size_t t_lane = 0;

}  // namespace

/// One parallel_for call. It lives on the caller's stack: the caller
/// waits until every helper slot has finished with it.
struct ThreadPool::Job {
  Job(const std::function<void(std::size_t)>& body, std::size_t begin, std::size_t end,
      std::size_t grain, std::size_t helpers)
      : body(body), end(end), grain(grain), cursor(begin), active_helpers(helpers) {}

  /// Runs chunks on lane `lane` until the range is exhausted.
  void drain(std::size_t lane) {
    const std::size_t outer = t_lane;  // a body may itself call parallel_for
    t_lane = lane;
    try {
      for (;;) {
        const std::size_t chunk = cursor.fetch_add(grain, std::memory_order_relaxed);
        if (chunk >= end) break;
        const std::size_t stop = std::min(end, chunk + grain);
        for (std::size_t i = chunk; i < stop; ++i) body(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      // Abandon the rest of the range so sibling chunks stop promptly.
      cursor.store(end, std::memory_order_relaxed);
    }
    t_lane = outer;
  }

  const std::function<void(std::size_t)>& body;
  const std::size_t end;
  const std::size_t grain;
  std::atomic<std::size_t> cursor;
  std::size_t lanes_handed_out = 0;  ///< guarded by the pool's mutex_
  std::size_t active_helpers;        ///< guarded by done_mutex
  std::mutex done_mutex;
  std::condition_variable done;
  std::mutex error_mutex;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool([] {
    std::lock_guard<std::mutex> lock(g_shared_config_mutex);
    g_shared_built = true;
    return g_shared_workers.value_or(default_worker_count());
  }());
  return pool;
}

bool ThreadPool::set_shared_worker_count(std::size_t workers) {
  std::lock_guard<std::mutex> lock(g_shared_config_mutex);
  if (g_shared_built) return false;
  g_shared_workers = workers;
  return true;
}

std::size_t ThreadPool::current_lane() noexcept { return t_lane; }

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    std::size_t lane = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || queue_head_ < queue_.size(); });
      if (queue_head_ == queue_.size()) return;  // stopping_ and drained
      job = queue_[queue_head_++];
      lane = ++job->lanes_handed_out;
      // Drop the taken prefix once it is at least half the queue; the
      // vector keeps its capacity, so a warm queue never allocates.
      if (2 * queue_head_ >= queue_.size()) {
        const auto taken = static_cast<std::ptrdiff_t>(queue_head_);
        queue_.erase(queue_.begin(), queue_.begin() + taken);
        queue_head_ = 0;
      }
    }
    job->drain(lane);
    // The job may be destroyed as soon as done_mutex is released.
    std::lock_guard<std::mutex> lock(job->done_mutex);
    if (--job->active_helpers == 0) job->done.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  const std::size_t helpers = std::min(worker_count(), chunks - 1);

  Job job(body, begin, end, grain, helpers);
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.insert(queue_.end(), helpers, &job);
    }
    for (std::size_t i = 0; i < helpers; ++i) wake_.notify_one();
  }

  job.drain(0);
  {
    std::unique_lock<std::mutex> lock(job.done_mutex);
    job.done.wait(lock, [&] { return job.active_helpers == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace o2o
