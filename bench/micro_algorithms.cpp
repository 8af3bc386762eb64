// Micro-benchmarks for the matching substrates and the paper's
// algorithms, including the two ablations DESIGN.md calls out:
//   * NSTD-T via taxi-proposing deferred acceptance vs via Algorithm 2
//     enumeration + selector (identical output, very different cost);
//   * full preference lists vs capped lists (preference construction
//     dominates at city scale).
#include <benchmark/benchmark.h>

#include "core/all_stable.h"
#include "core/dispatchers.h"
#include "core/selectors.h"
#include "geo/backend.h"
#include "index/spatial_grid.h"
#include "matching/bottleneck.h"
#include "matching/greedy.h"
#include "matching/hungarian.h"
#include "util/rng.h"

namespace {

using namespace o2o;

// Resolved through the backend factory; the default spec is the paper's
// Euclidean surface. kBackend owns the oracle kOracle refers to.
const geo::DistanceBackend kBackend = geo::make_distance_oracle({});
const geo::DistanceOracle& kOracle = *kBackend.oracle;

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

matching::CostMatrix make_costs(const Instance& instance) {
  matching::CostMatrix costs(instance.requests.size(), instance.taxis.size());
  for (std::size_t r = 0; r < instance.requests.size(); ++r) {
    for (std::size_t t = 0; t < instance.taxis.size(); ++t) {
      costs.at(r, t) =
          kOracle.distance(instance.taxis[t].location, instance.requests[r].pickup);
    }
  }
  return costs;
}

void BM_BuildPreferenceProfile(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance instance = make_instance(n, n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_nonsharing_profile(
        instance.taxis, instance.requests, kOracle, core::PreferenceParams{}));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BuildPreferenceProfile)->Range(32, 512)->Complexity();

void BM_BuildCappedPreferenceProfile(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance instance = make_instance(n, n, 1);
  core::PreferenceParams params;
  params.list_cap = 16;  // the ablation: keep each side's 16 best
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_nonsharing_profile(instance.taxis, instance.requests, kOracle, params));
  }
}
BENCHMARK(BM_BuildCappedPreferenceProfile)->Range(32, 512);

// City scale: a 20x20 km region, a 2 km passenger threshold, and far
// more taxis than requests. Only taxis the grid returns within the
// threshold are scored.
void BM_BuildProfileSparseAtScale(benchmark::State& state) {
  const Instance instance =
      make_instance(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)), 5);
  core::PreferenceParams params;
  params.passenger_threshold_km = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_nonsharing_profile(instance.taxis, instance.requests, kOracle, params));
  }
}
BENCHMARK(BM_BuildProfileSparseAtScale)
    ->Args({200, 2000})
    ->Args({1000, 10000})
    ->Unit(benchmark::kMillisecond);

void BM_BuildProfileSparsePrebuiltGrid(benchmark::State& state) {
  // The simulator's situation: the idle-taxi grid already exists when the
  // dispatch frame fires, so construction amortises to pure queries.
  const Instance instance =
      make_instance(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)), 5);
  const index::SpatialGrid grid(std::span<const trace::Taxi>(instance.taxis), 1.0);
  core::PreferenceParams params;
  params.passenger_threshold_km = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_nonsharing_profile(instance.taxis, instance.requests,
                                                      kOracle, params, &grid));
  }
}
BENCHMARK(BM_BuildProfileSparsePrebuiltGrid)
    ->Args({200, 2000})
    ->Args({1000, 10000})
    ->Unit(benchmark::kMillisecond);

void BM_GaleShapleyRequests(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance instance = make_instance(n, n, 2);
  const auto profile = build_nonsharing_profile(instance.taxis, instance.requests,
                                                kOracle, core::PreferenceParams{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::gale_shapley_requests(profile));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GaleShapleyRequests)->Range(32, 1024)->Complexity();

void BM_GaleShapleyTaxis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance instance = make_instance(n, n, 3);
  const auto profile = build_nonsharing_profile(instance.taxis, instance.requests,
                                                kOracle, core::PreferenceParams{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::gale_shapley_taxis(profile));
  }
}
BENCHMARK(BM_GaleShapleyTaxis)->Range(32, 1024);

void BM_TaxiOptimalViaEnumeration(benchmark::State& state) {
  // Ablation: the paper's route to NSTD-T (Algorithm 2 + selector).
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance instance = make_instance(n, n, 4);
  core::PreferenceParams params;
  params.passenger_threshold_km = 6.0;  // keep the lattice small
  params.taxi_threshold_score = 3.0;
  const auto profile =
      build_nonsharing_profile(instance.taxis, instance.requests, kOracle, params);
  for (auto _ : state) {
    const auto all = core::enumerate_all_stable(profile);
    benchmark::DoNotOptimize(core::select_taxi_optimal(all.matchings, profile));
  }
}
BENCHMARK(BM_TaxiOptimalViaEnumeration)->Range(8, 64);

void BM_Hungarian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto costs = make_costs(make_instance(n, n, 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::solve_min_cost(costs));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Hungarian)->Range(32, 512)->Complexity();

void BM_Bottleneck(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto costs = make_costs(make_instance(n, n, 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::solve_min_max(costs));
  }
}
BENCHMARK(BM_Bottleneck)->Range(32, 512);

void BM_GreedyMatching(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto costs = make_costs(make_instance(n, n, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::solve_greedy(costs));
  }
}
BENCHMARK(BM_GreedyMatching)->Range(32, 512);

}  // namespace

BENCHMARK_MAIN();
