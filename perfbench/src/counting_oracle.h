// A DistanceOracle decorator that counts and times every query before
// forwarding it, unchanged, to the wrapped oracle. Every virtual of
// geo::DistanceOracle is overridden and forwarded to the same virtual of
// the inner oracle (never to a default that loops over distance()), so
// results and capabilities are exactly the inner oracle's.
//
// Queries arrive from the shared ThreadPool's workers: each thread
// accumulates into its own cache-line-sized slot, and totals() sums the
// slots. Call totals() only while no query is in flight (between
// dispatch calls).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "geo/distance_oracle.h"

namespace perfbench {

class CountingOracle final : public o2o::geo::DistanceOracle {
 public:
  explicit CountingOracle(const o2o::geo::DistanceOracle& inner);

  struct Totals {
    std::uint64_t calls = 0;   ///< queries: one per point query or bulk row
    std::uint64_t cells = 0;   ///< distances returned (a bulk row counts its length)
    std::uint64_t ns = 0;      ///< wall time spent inside the inner oracle
  };
  Totals totals() const;

  double distance(const o2o::geo::Point& a, const o2o::geo::Point& b) const override;
  std::vector<double> distances_from(const o2o::geo::Point& source,
                                     std::span<const o2o::geo::Point> targets) const override;
  std::vector<double> distances_to(std::span<const o2o::geo::Point> sources,
                                   const o2o::geo::Point& target) const override;
  void distances_from_into(const o2o::geo::Point& source,
                           std::span<const o2o::geo::Point> targets,
                           double* out) const override;
  void distances_to_into(std::span<const o2o::geo::Point> sources,
                         const o2o::geo::Point& target, double* out) const override;
  void prepare_frame(std::span<const o2o::geo::Point> points) const override;
  Capabilities capabilities() const noexcept override;

 private:
  struct alignas(64) Slot {
    Totals totals;
  };
  Slot& slot() const;

  const o2o::geo::DistanceOracle& inner_;
  const std::uint64_t id_;  ///< process-unique, so thread caches never alias
  mutable std::mutex slots_mutex_;
  mutable std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace perfbench
