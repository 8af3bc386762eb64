// The paper's distance function D(.,.) as an abstract oracle, so every
// algorithm (preferences, routing, baselines) is written once and runs
// against straight-line, rectilinear, circuity-scaled, or road-network
// shortest-path distances.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "geo/point.h"
#include "util/contracts.h"

namespace o2o::geo {

/// Abstract shortest-path distance D(a, b) in km. Implementations must be
/// non-negative, symmetric up to the network's one-way streets, and satisfy
/// D(a, a) == 0.
///
/// Row contract: every distances_from / distances_from_into entry equals
/// distance(source, targets[i]) bit for bit. Route pricing relies on it:
/// the route solvers price a chosen route from the stop table they
/// searched on instead of calling distance() again, and the result must
/// stay identical to route_length / rider_metrics. Every in-tree oracle
/// keeps it (same formula on the metric oracles, same snap legs plus
/// forward tree on NetworkOracle, same min-join on CHOracle), and a new
/// backend must too. distances_to / distances_to_into promise less: on
/// NetworkOracle a reverse tree sums the same path in the opposite order,
/// so entries equal distance() only up to summation order and must not
/// feed values that are compared with pointwise prices.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;
  virtual double distance(const Point& a, const Point& b) const = 0;

  /// Bulk query: D(source, targets[i]) for every target. The default
  /// loops over distance(); oracles with per-source state (the network
  /// oracle's Dijkstra trees) override it to resolve the source once and
  /// serve the whole batch from one cached tree.
  virtual std::vector<double> distances_from(const Point& source,
                                             std::span<const Point> targets) const {
    std::vector<double> result(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      result[i] = distance(source, targets[i]);
    }
    return result;
  }

  /// Bulk query in the other direction: D(sources[i], target) for every
  /// source — the shape of the dispatch hot path, where one request's
  /// pick-up is scored against many candidate taxis. The default loops
  /// over distance(); the network oracle serves the batch from one cached
  /// *reverse* Dijkstra tree rooted at the target.
  virtual std::vector<double> distances_to(std::span<const Point> sources,
                                           const Point& target) const {
    std::vector<double> result(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      result[i] = distance(sources[i], target);
    }
    return result;
  }

  /// distances_from writing into a caller-owned row of targets.size()
  /// doubles — the shape of the allocation-free hot paths (stop tables,
  /// the SIMD leg gather), which reuse one buffer across thousands of
  /// rows. Values are exactly distances_from(): the default delegates to
  /// it (so subclasses overriding only the allocating form stay correct),
  /// and the in-tree oracles override with the same arithmetic minus the
  /// allocation.
  virtual void distances_from_into(const Point& source, std::span<const Point> targets,
                                   double* out) const {
    const std::vector<double> row = distances_from(source, targets);
    std::copy(row.begin(), row.end(), out);
  }

  /// distances_to writing into a caller-owned row; same contract as
  /// distances_from_into.
  virtual void distances_to_into(std::span<const Point> sources, const Point& target,
                                 double* out) const {
    const std::vector<double> row = distances_to(sources, target);
    std::copy(row.begin(), row.end(), out);
  }

  /// Frame-level hint: the given points (typically the frame's idle-taxi
  /// snapshot) are about to appear as endpoints of many queries. Default
  /// no-op; the network-backed oracles warm their snap memos (and the CH
  /// oracle its per-node search spaces) so per-query endpoint resolution
  /// becomes a hash hit for the rest of the frame.
  virtual void prepare_frame(std::span<const Point> points) const { (void)points; }

  /// Static properties of an oracle, stated in one place. Consumers that
  /// branch on a property (the parallel profile fan-out, the share-group
  /// reverse-row reuse) read the struct instead of per-property virtuals,
  /// so a new backend declares everything with one override.
  struct Capabilities {
    /// distance() and the bulk rows may be called from several threads at
    /// once. Oracles with unsynchronized internal caches must clear this.
    bool concurrent_queries = true;
    /// D(a, b) == D(b, a) bitwise for every pair, letting bulk consumers
    /// (the share-group leg gather) serve a reverse row from the forward
    /// one. Metric oracles are symmetric; the network-backed oracles are
    /// not (one-way streets, directed snapping).
    bool symmetric_distances = true;

    friend bool operator==(const Capabilities&, const Capabilities&) = default;
  };

  /// The default claims the safest metric-oracle combination: concurrent
  /// and symmetric. Stateful or directed backends override.
  virtual Capabilities capabilities() const noexcept { return {}; }
};

/// Straight-line distance (the paper's Euclidean surface).
class EuclideanOracle final : public DistanceOracle {
 public:
  double distance(const Point& a, const Point& b) const override {
    return euclidean_distance(a, b);
  }
  void distances_from_into(const Point& source, std::span<const Point> targets,
                           double* out) const override {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      out[i] = euclidean_distance(source, targets[i]);
    }
  }
  void distances_to_into(std::span<const Point> sources, const Point& target,
                         double* out) const override {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      out[i] = euclidean_distance(sources[i], target);
    }
  }
};

/// Rectilinear (grid street) distance.
class ManhattanOracle final : public DistanceOracle {
 public:
  double distance(const Point& a, const Point& b) const override {
    return manhattan_distance(a, b);
  }
  void distances_from_into(const Point& source, std::span<const Point> targets,
                           double* out) const override {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      out[i] = manhattan_distance(source, targets[i]);
    }
  }
  void distances_to_into(std::span<const Point> sources, const Point& target,
                         double* out) const override {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      out[i] = manhattan_distance(sources[i], target);
    }
  }
};

/// Euclidean distance inflated by a circuity factor >= 1 -- the standard
/// approximation of road distance from straight-line distance (factor
/// ~1.3 for US cities).
class CircuityOracle final : public DistanceOracle {
 public:
  explicit CircuityOracle(double factor) : factor_(factor) {
    O2O_EXPECTS(factor >= 1.0);
  }
  double distance(const Point& a, const Point& b) const override {
    return factor_ * euclidean_distance(a, b);
  }
  void distances_from_into(const Point& source, std::span<const Point> targets,
                           double* out) const override {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      out[i] = factor_ * euclidean_distance(source, targets[i]);
    }
  }
  void distances_to_into(std::span<const Point> sources, const Point& target,
                         double* out) const override {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      out[i] = factor_ * euclidean_distance(sources[i], target);
    }
  }
  double factor() const noexcept { return factor_; }

 private:
  double factor_;
};

}  // namespace o2o::geo
