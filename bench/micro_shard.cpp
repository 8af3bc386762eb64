// Micro-benchmarks for the component-sharded stable dispatch engine
// (core/shard_engine.h): serial-vs-sharded A/B on city-scale frames for
// deferred acceptance on both proposal sides, plus the cost of the
// union-find extraction itself.
//
// Two geometries, same 40x40 km city:
//   * hotspot -- demand concentrated in an 8x8 grid of neighbourhood
//     centres spaced farther apart than the passenger threshold, so the
//     candidate graph decomposes into one component per hotspot (the
//     regime sharding is built for);
//   * uniform -- requests and taxis spread evenly, which percolates into
//     a single giant component under the same threshold (the degenerate
//     case: sharding must not cost anything when there is nothing to
//     shard).
//
// The serial arms run ShardOptions::parallel = false, which routes to
// the exact legacy pass (global deferred acceptance). Run with --quick
// for the CI smoke subset (the 2000x10000 arms are filtered out).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/preferences.h"
#include "core/shard_engine.h"
#include "geo/backend.h"
#include "util/rng.h"

namespace {

using namespace o2o;

// Resolved through the backend factory; the default spec is the paper's
// Euclidean surface. kBackend owns the oracle kOracle refers to.
const geo::DistanceBackend kBackend = geo::make_distance_oracle({});
const geo::DistanceOracle& kOracle = *kBackend.oracle;

struct CityFrame {
  std::vector<trace::Taxi> taxis;
  std::vector<trace::Request> requests;
};

constexpr double kTwoPi = 6.283185307179586;

trace::Request make_request(Rng& rng, std::size_t id, geo::Point pickup) {
  trace::Request request;
  request.id = static_cast<trace::RequestId>(id);
  request.pickup = pickup;
  const double angle = rng.uniform(0.0, kTwoPi);
  const double trip = rng.uniform(1.0, 4.0);
  request.dropoff = {pickup.x + trip * std::cos(angle),
                     pickup.y + trip * std::sin(angle)};
  return request;
}

/// Demand hotspots: an 8x8 grid of neighbourhood centres 5 km apart,
/// every agent within 0.8 km of its centre. With a 2 km passenger
/// threshold the closest cross-hotspot pair sits 3.4 km apart, so each
/// hotspot is its own connected component.
CityFrame hotspot_frame(std::size_t requests, std::size_t taxis, std::uint64_t seed) {
  constexpr std::size_t kGrid = 8;
  constexpr double kSpacingKm = 5.0;
  constexpr double kRadiusKm = 0.8;
  Rng rng(seed);
  const auto hotspot_point = [&rng](std::size_t i) {
    const std::size_t h = i % (kGrid * kGrid);
    const geo::Point center{2.5 + kSpacingKm * static_cast<double>(h % kGrid),
                            2.5 + kSpacingKm * static_cast<double>(h / kGrid)};
    const double angle = rng.uniform(0.0, kTwoPi);
    const double radius = rng.uniform(0.0, kRadiusKm);
    return geo::Point{center.x + radius * std::cos(angle),
                      center.y + radius * std::sin(angle)};
  };
  CityFrame frame;
  for (std::size_t t = 0; t < taxis; ++t) {
    frame.taxis.push_back({static_cast<trace::TaxiId>(t), hotspot_point(t), 4});
  }
  for (std::size_t r = 0; r < requests; ++r) {
    frame.requests.push_back(make_request(rng, r, hotspot_point(r)));
  }
  return frame;
}

/// Uniform spread over the full 40x40 km region: under the same 2 km
/// threshold the candidate graph percolates into one giant component.
CityFrame uniform_frame(std::size_t requests, std::size_t taxis, std::uint64_t seed) {
  constexpr double kExtentKm = 40.0;
  Rng rng(seed);
  CityFrame frame;
  for (std::size_t t = 0; t < taxis; ++t) {
    frame.taxis.push_back({static_cast<trace::TaxiId>(t),
                           {rng.uniform(0, kExtentKm), rng.uniform(0, kExtentKm)},
                           4});
  }
  for (std::size_t r = 0; r < requests; ++r) {
    frame.requests.push_back(make_request(
        rng, r, {rng.uniform(0, kExtentKm), rng.uniform(0, kExtentKm)}));
  }
  return frame;
}

core::PreferenceParams city_params() {
  core::PreferenceParams params;
  params.passenger_threshold_km = 2.0;
  params.taxi_threshold_score = 8.0;
  return params;
}

core::PreferenceProfile profile_of(const CityFrame& frame) {
  return core::build_nonsharing_profile(frame.taxis, frame.requests, kOracle,
                                        city_params());
}

void report_partition(benchmark::State& state, const core::PreferenceProfile& profile) {
  const core::ComponentPartition partition = core::extract_components(profile);
  state.counters["components"] = static_cast<double>(partition.components.size());
  state.counters["largest"] =
      static_cast<double>(partition.largest_component_requests);
}

void BM_ComponentExtract(benchmark::State& state) {
  const core::PreferenceProfile profile = profile_of(hotspot_frame(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)), 31));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extract_components(profile));
  }
  report_partition(state, profile);
}
BENCHMARK(BM_ComponentExtract)
    ->Args({500, 2500})
    ->Args({2000, 10000})
    ->Unit(benchmark::kMillisecond);

void stable_match_arm(benchmark::State& state, const CityFrame& frame,
                      core::ProposalSide side, bool parallel) {
  const core::PreferenceProfile profile = profile_of(frame);
  core::ShardOptions options;
  options.parallel = parallel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sharded_gale_shapley(profile, side, options));
  }
  report_partition(state, profile);
}

CityFrame hotspot_of(benchmark::State& state) {
  return hotspot_frame(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(1)), 31);
}

void BM_PassengerMatchSerial(benchmark::State& state) {
  stable_match_arm(state, hotspot_of(state), core::ProposalSide::kPassengers, false);
}
void BM_PassengerMatchSharded(benchmark::State& state) {
  stable_match_arm(state, hotspot_of(state), core::ProposalSide::kPassengers, true);
}
void BM_TaxiMatchSerial(benchmark::State& state) {
  stable_match_arm(state, hotspot_of(state), core::ProposalSide::kTaxis, false);
}
void BM_TaxiMatchSharded(benchmark::State& state) {
  stable_match_arm(state, hotspot_of(state), core::ProposalSide::kTaxis, true);
}
BENCHMARK(BM_PassengerMatchSerial)
    ->Args({500, 2500})
    ->Args({2000, 10000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PassengerMatchSharded)
    ->Args({500, 2500})
    ->Args({2000, 10000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TaxiMatchSerial)
    ->Args({500, 2500})
    ->Args({2000, 10000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TaxiMatchSharded)
    ->Args({500, 2500})
    ->Args({2000, 10000})
    ->Unit(benchmark::kMillisecond);

// The giant-component control: sharding has nothing to split, so the
// sharded arm must track the serial one (extraction overhead only).
void BM_UniformMatchSerial(benchmark::State& state) {
  stable_match_arm(state,
                   uniform_frame(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(1)), 33),
                   core::ProposalSide::kPassengers, false);
}
void BM_UniformMatchSharded(benchmark::State& state) {
  stable_match_arm(state,
                   uniform_frame(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(1)), 33),
                   core::ProposalSide::kPassengers, true);
}
BENCHMARK(BM_UniformMatchSerial)
    ->Args({2000, 10000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UniformMatchSharded)
    ->Args({2000, 10000})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: `--quick` keeps only the 500x2500 arms at a reduced
// per-benchmark measurement time -- the CI smoke subset.
int main(int argc, char** argv) {
  bool quick = false;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      quick = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  static std::string filter = "--benchmark_filter=-.*/2000/10000";
  static std::string min_time = "--benchmark_min_time=0.05";
  if (quick) {
    args.push_back(filter.data());
    args.push_back(min_time.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
