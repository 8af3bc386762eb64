// Micro-benchmarks for the road-network distance engine:
//   * point-to-point shortest_path (bounded bidirectional Dijkstra) vs a
//     full single-source tree per query;
//   * oracle query throughput cold vs warm cache, and under concurrent
//     callers (the sharded tree cache and snap memo are the shared
//     structures);
//   * per-row pricing pointwise vs the bulk distances_from/distances_to
//     APIs;
//   * network-backed 200 x 2k and 1k x 10k preference-profile
//     construction, warm and cold.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/preferences.h"
#include "geo/road_network.h"
#include "util/rng.h"

namespace {

using namespace o2o;

// 1681 intersections over the same 20x20 km region the instance uses.
const geo::RoadNetwork& bench_city() {
  static const geo::RoadNetwork city = geo::RoadNetwork::make_grid_city(
      41, 41, 0.5, /*jitter_km=*/0.1, /*closure_fraction=*/0.1, /*seed=*/17);
  return city;
}

struct Instance {
  std::vector<trace::Taxi> taxis;
  std::vector<trace::Request> requests;
};

Instance make_instance(std::size_t requests, std::size_t taxis, std::uint64_t seed) {
  Rng rng(seed);
  Instance instance;
  for (std::size_t t = 0; t < taxis; ++t) {
    trace::Taxi taxi;
    taxi.id = static_cast<trace::TaxiId>(t);
    taxi.location = {rng.uniform(0, 20), rng.uniform(0, 20)};
    instance.taxis.push_back(taxi);
  }
  for (std::size_t r = 0; r < requests; ++r) {
    trace::Request request;
    request.id = static_cast<trace::RequestId>(r);
    request.pickup = {rng.uniform(0, 20), rng.uniform(0, 20)};
    request.dropoff = {rng.uniform(0, 20), rng.uniform(0, 20)};
    instance.requests.push_back(request);
  }
  return instance;
}

std::vector<geo::Point> random_points(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::Point> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back({rng.uniform(0, 20), rng.uniform(0, 20)});
  }
  return points;
}

// --- point-to-point: bounded bidirectional search vs a full tree ---------

void BM_ShortestPathBidirectional(benchmark::State& state) {
  const geo::RoadNetwork& city = bench_city();
  Rng rng(23);
  const auto n = static_cast<std::int64_t>(city.node_count());
  for (auto _ : state) {
    const auto s = static_cast<geo::NodeId>(rng.uniform_int(0, n - 1));
    const auto t = static_cast<geo::NodeId>(rng.uniform_int(0, n - 1));
    benchmark::DoNotOptimize(city.shortest_path(s, t));
  }
}
BENCHMARK(BM_ShortestPathBidirectional)->Unit(benchmark::kMicrosecond);

void BM_ShortestPathFullTree(benchmark::State& state) {
  const geo::RoadNetwork& city = bench_city();
  Rng rng(23);
  const auto n = static_cast<std::int64_t>(city.node_count());
  for (auto _ : state) {
    const auto s = static_cast<geo::NodeId>(rng.uniform_int(0, n - 1));
    const auto t = static_cast<geo::NodeId>(rng.uniform_int(0, n - 1));
    benchmark::DoNotOptimize(city.shortest_paths_from(s)[static_cast<std::size_t>(t)]);
  }
}
BENCHMARK(BM_ShortestPathFullTree)->Unit(benchmark::kMicrosecond);

// --- oracle throughput: cold vs warm cache -------------------------------

void BM_OracleQueriesColdCache(benchmark::State& state) {
  const std::vector<geo::Point> points = random_points(257, 29);
  for (auto _ : state) {
    // A fresh oracle per iteration: every tree and snap is a miss.
    const geo::NetworkOracle oracle(bench_city(), /*cache_capacity=*/4096);
    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
      benchmark::DoNotOptimize(oracle.distance(points[i], points[i + 1]));
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_OracleQueriesColdCache)->Unit(benchmark::kMillisecond);

void BM_OracleQueriesWarmCache(benchmark::State& state) {
  const std::vector<geo::Point> points = random_points(257, 29);
  const geo::NetworkOracle oracle(bench_city(), /*cache_capacity=*/4096);
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    (void)oracle.distance(points[i], points[i + 1]);  // prewarm
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
      benchmark::DoNotOptimize(oracle.distance(points[i], points[i + 1]));
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_OracleQueriesWarmCache)->Unit(benchmark::kMicrosecond);

// --- serial vs concurrent query throughput -------------------------------

// Shared oracle, per-thread query stream; ->Threads(k) races the shared
// cache and snap memo from k callers. items/s is the comparable number.
void BM_ConcurrentQueries(benchmark::State& state) {
  static const geo::NetworkOracle oracle(bench_city(), /*cache_capacity=*/4096);
  const std::vector<geo::Point> points =
      random_points(257, 31 + static_cast<std::uint64_t>(state.thread_index()));
  oracle.prepare_frame(points);
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
      benchmark::DoNotOptimize(oracle.distance(points[i], points[i + 1]));
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ConcurrentQueries)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// --- one row of the dispatch hot path: pointwise vs bulk -----------------

void BM_RowPointwise(benchmark::State& state) {
  const geo::NetworkOracle oracle(bench_city(), /*cache_capacity=*/4096);
  const std::vector<geo::Point> sources = random_points(256, 37);
  const geo::Point pickup{10.0, 10.0};
  (void)oracle.distances_to(sources, pickup);  // prewarm trees + snaps
  for (auto _ : state) {
    double sum = 0.0;
    for (const geo::Point& source : sources) {
      sum += oracle.distance(source, pickup);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RowPointwise)->Unit(benchmark::kMicrosecond);

void BM_RowBulkDistancesFrom(benchmark::State& state) {
  const geo::NetworkOracle oracle(bench_city(), /*cache_capacity=*/4096);
  const std::vector<geo::Point> targets = random_points(256, 37);
  const geo::Point source{10.0, 10.0};
  (void)oracle.distances_from(source, targets);  // prewarm
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.distances_from(source, targets));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RowBulkDistancesFrom)->Unit(benchmark::kMicrosecond);

void BM_RowBulkDistancesTo(benchmark::State& state) {
  const geo::NetworkOracle oracle(bench_city(), /*cache_capacity=*/4096);
  const std::vector<geo::Point> sources = random_points(256, 37);
  const geo::Point pickup{10.0, 10.0};
  (void)oracle.distances_to(sources, pickup);  // prewarm
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.distances_to(sources, pickup));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RowBulkDistancesTo)->Unit(benchmark::kMicrosecond);

// --- network-backed profile construction --------------------------------
//
// The oracle at its shipped default auto-sizes the cache to the frame
// working set (~1681 distinct taxi nodes + ~875 pickup nodes on the 1k x
// 10k instance), so after the prewarm build every tree read is a hit.

core::PreferenceParams profile_params() {
  core::PreferenceParams params;
  params.passenger_threshold_km = 2.0;
  return params;
}

void BM_BuildProfileNetworkEngine(benchmark::State& state) {
  const Instance instance =
      make_instance(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)), 5);
  const geo::NetworkOracle oracle(bench_city());  // default: auto-sized cache
  (void)build_nonsharing_profile(instance.taxis, instance.requests, oracle,
                                 profile_params());
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_nonsharing_profile(instance.taxis, instance.requests,
                                                      oracle, profile_params()));
  }
}
BENCHMARK(BM_BuildProfileNetworkEngine)
    ->Args({200, 2000})
    ->Args({1000, 10000})
    ->Unit(benchmark::kMillisecond);

void BM_BuildProfileNetworkEngineColdEachFrame(benchmark::State& state) {
  // Worst case for the engine: every frame pays all tree builds + snaps.
  const Instance instance =
      make_instance(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)), 5);
  for (auto _ : state) {
    const geo::NetworkOracle oracle(bench_city(), /*cache_capacity=*/4096);
    benchmark::DoNotOptimize(build_nonsharing_profile(instance.taxis, instance.requests,
                                                      oracle, profile_params()));
  }
}
BENCHMARK(BM_BuildProfileNetworkEngineColdEachFrame)
    ->Args({1000, 10000})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
