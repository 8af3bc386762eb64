#include "counting_oracle.h"

#include <atomic>
#include <chrono>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_id{1};

/// Adds one query's count and duration to `totals` on scope exit.
class Tally {
 public:
  Tally(CountingOracle::Totals& totals, std::uint64_t cells)
      : totals_(totals), cells_(cells), start_(std::chrono::steady_clock::now()) {}
  ~Tally() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    totals_.calls += 1;
    totals_.cells += cells_;
    totals_.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }
  Tally(const Tally&) = delete;
  Tally& operator=(const Tally&) = delete;

 private:
  CountingOracle::Totals& totals_;
  std::uint64_t cells_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

CountingOracle::CountingOracle(const o2o::geo::DistanceOracle& inner)
    : inner_(inner), id_(g_next_id.fetch_add(1, std::memory_order_relaxed)) {}

CountingOracle::Slot& CountingOracle::slot() const {
  thread_local std::uint64_t bound_id = 0;
  thread_local Slot* bound = nullptr;
  if (bound_id != id_) {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    slots_.push_back(std::make_unique<Slot>());
    bound = slots_.back().get();
    bound_id = id_;
  }
  return *bound;
}

CountingOracle::Totals CountingOracle::totals() const {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  Totals sum;
  for (const auto& s : slots_) {
    sum.calls += s->totals.calls;
    sum.cells += s->totals.cells;
    sum.ns += s->totals.ns;
  }
  return sum;
}

double CountingOracle::distance(const o2o::geo::Point& a, const o2o::geo::Point& b) const {
  Tally tally(slot().totals, 1);
  return inner_.distance(a, b);
}

std::vector<double> CountingOracle::distances_from(
    const o2o::geo::Point& source, std::span<const o2o::geo::Point> targets) const {
  Tally tally(slot().totals, targets.size());
  return inner_.distances_from(source, targets);
}

std::vector<double> CountingOracle::distances_to(std::span<const o2o::geo::Point> sources,
                                                 const o2o::geo::Point& target) const {
  Tally tally(slot().totals, sources.size());
  return inner_.distances_to(sources, target);
}

void CountingOracle::distances_from_into(const o2o::geo::Point& source,
                                         std::span<const o2o::geo::Point> targets,
                                         double* out) const {
  Tally tally(slot().totals, targets.size());
  inner_.distances_from_into(source, targets, out);
}

void CountingOracle::distances_to_into(std::span<const o2o::geo::Point> sources,
                                       const o2o::geo::Point& target, double* out) const {
  Tally tally(slot().totals, sources.size());
  inner_.distances_to_into(sources, target, out);
}

void CountingOracle::prepare_frame(std::span<const o2o::geo::Point> points) const {
  inner_.prepare_frame(points);
}

CountingOracle::Capabilities CountingOracle::capabilities() const noexcept {
  return inner_.capabilities();
}

}  // namespace perfbench
