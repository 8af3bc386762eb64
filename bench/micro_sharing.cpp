// Micro-benchmarks for the sharing pipeline: shared-route optimization
// (the exhaustive search, cold and with a reused stop table),
// feasible-group enumeration, the three
// set-packing solvers, and city-scale runs of the grid-pruned
// enumeration engine and full sharing frames (the EXPERIMENTS.md tables).
//
// Run with --quick for the CI smoke subset: the 5000-request city arm is
// filtered out and the measurement time per benchmark is cut down.
// `--frames N` switches to the perturbed-frame mode: consecutive frames
// with `--churn X` request churn (default 0.15) share one GroupCache,
// reporting the cold (first) frame against the warm mean -- the
// cross-frame replay numbers in EXPERIMENTS.md. Every warm frame's
// groups are also compared with an uncached enumeration of the same
// requests; any difference exits 1.
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/dispatch_config.h"
#include "core/sharing.h"
#include "geo/backend.h"
#include "index/spatial_grid.h"
#include "obs/obs.h"
#include "packing/group_enum.h"
#include "packing/groups.h"
#include "packing/set_packing.h"
#include "routing/optimizer.h"
#include "util/rng.h"

namespace {

using namespace o2o;

// Resolved through the backend factory; the default spec is the paper's
// Euclidean surface. kBackend owns the oracle kOracle refers to.
const geo::DistanceBackend kBackend = geo::make_distance_oracle({});
const geo::DistanceOracle& kOracle = *kBackend.oracle;

std::vector<trace::Request> make_requests(std::size_t count, std::uint64_t seed,
                                          double extent = 6.0) {
  Rng rng(seed);
  std::vector<trace::Request> requests;
  for (std::size_t r = 0; r < count; ++r) {
    trace::Request request;
    request.id = static_cast<trace::RequestId>(r);
    request.pickup = {rng.uniform(0, extent), rng.uniform(0, extent)};
    request.dropoff = {rng.uniform(0, extent) + extent, rng.uniform(0, extent)};
    requests.push_back(request);
  }
  return requests;
}

void BM_RouteExhaustive(benchmark::State& state) {
  const auto riders = make_requests(static_cast<std::size_t>(state.range(0)), 11);
  const geo::Point start{0, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::optimal_route(riders, kOracle, start));
  }
}
BENCHMARK(BM_RouteExhaustive)->DenseRange(1, 4);

void BM_AnchoredSolverReuse(benchmark::State& state) {
  // The dispatcher's hot path: one group priced against many taxis,
  // route-free (a route is built only for the matched taxi).
  const auto riders = make_requests(3, 13);
  const routing::AnchoredRouteSolver solver(riders, kOracle);
  Rng rng(14);
  for (auto _ : state) {
    const geo::Point start{rng.uniform(0, 12), rng.uniform(0, 12)};
    benchmark::DoNotOptimize(solver.best_order(start));
  }
}
BENCHMARK(BM_AnchoredSolverReuse);

void BM_GroupEnumerationPruned(benchmark::State& state) {
  const auto requests = make_requests(static_cast<std::size_t>(state.range(0)), 15);
  packing::GroupOptions options;
  options.detour_threshold_km = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        packing::enumerate_share_groups(requests, kOracle, options));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GroupEnumerationPruned)->Range(16, 128)->Complexity();

packing::SetPackingProblem make_packing_problem(std::size_t requests,
                                                std::uint64_t seed) {
  const auto pool = make_requests(requests, seed);
  packing::GroupOptions options;
  options.detour_threshold_km = 5.0;
  packing::SetPackingProblem problem;
  problem.universe_size = requests;
  for (const auto& group : packing::enumerate_share_groups(pool, kOracle, options)) {
    std::vector<std::size_t> members = group.member_indices;
    std::sort(members.begin(), members.end());
    problem.sets.push_back(std::move(members));
  }
  return problem;
}

void BM_SetPackingGreedy(benchmark::State& state) {
  const auto problem = make_packing_problem(static_cast<std::size_t>(state.range(0)), 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packing::solve_greedy(problem));
  }
  state.counters["sets"] = static_cast<double>(problem.sets.size());
}
BENCHMARK(BM_SetPackingGreedy)->Range(16, 128);

void BM_SetPackingLocalSearch(benchmark::State& state) {
  const auto problem = make_packing_problem(static_cast<std::size_t>(state.range(0)), 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packing::solve_local_search(problem));
  }
  state.counters["sets"] = static_cast<double>(problem.sets.size());
}
BENCHMARK(BM_SetPackingLocalSearch)->Range(16, 128);

void BM_SetPackingExact(benchmark::State& state) {
  // Exact branch & bound only fits small pools.
  auto problem = make_packing_problem(10, 17);
  if (problem.sets.size() > 26) problem.sets.resize(26);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packing::solve_exact(problem));
  }
  state.counters["sets"] = static_cast<double>(problem.sets.size());
}
BENCHMARK(BM_SetPackingExact);

void BM_DispatchSharingFrame(benchmark::State& state) {
  // One full Algorithm-3 frame: grouping + packing + stable matching.
  const auto requests = make_requests(static_cast<std::size_t>(state.range(0)), 18);
  Rng rng(19);
  std::vector<trace::Taxi> taxis;
  for (int t = 0; t < state.range(1); ++t) {
    trace::Taxi taxi;
    taxi.id = t;
    taxi.location = {rng.uniform(0, 12), rng.uniform(0, 12)};
    taxis.push_back(taxi);
  }
  core::SharingParams params;
  params.preference.passenger_threshold_km = 12.0;
  params.preference.taxi_threshold_score = 8.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::dispatch_sharing(taxis, requests, kOracle, params));
  }
}
BENCHMARK(BM_DispatchSharingFrame)->Args({32, 64})->Args({64, 128})->Args({64, 256});

// ---------------------------------------------------------------------------
// City scale: requests over a 40x40 km region with 1-4 km trips, the
// regime where the derived pick-up radius (θ/2 + direct) prunes the vast
// majority of the O(R^2) pair candidates.

std::vector<trace::Request> make_city_requests(std::size_t count, std::uint64_t seed) {
  constexpr double kExtentKm = 40.0;
  Rng rng(seed);
  std::vector<trace::Request> requests;
  requests.reserve(count);
  for (std::size_t r = 0; r < count; ++r) {
    trace::Request request;
    request.id = static_cast<trace::RequestId>(r);
    request.pickup = {rng.uniform(0, kExtentKm), rng.uniform(0, kExtentKm)};
    const double angle = rng.uniform(0.0, 6.283185307179586);
    const double trip = rng.uniform(1.0, 4.0);
    request.dropoff = {request.pickup.x + trip * std::cos(angle),
                       request.pickup.y + trip * std::sin(angle)};
    requests.push_back(request);
  }
  return requests;
}

packing::GroupOptions city_group_options() {
  packing::GroupOptions options;
  options.detour_threshold_km = 2.0;  // half the shortest trip in the mix
  return options;
}

void BM_CityEnumerationPruned(benchmark::State& state) {
  const auto requests = make_city_requests(static_cast<std::size_t>(state.range(0)), 23);
  const packing::GroupOptions options = city_group_options();
  std::size_t groups = 0;
  for (auto _ : state) {
    const auto enumerated = packing::enumerate_share_groups(requests, kOracle, options);
    groups = enumerated.size();
    benchmark::DoNotOptimize(enumerated);
  }
  state.counters["groups"] = static_cast<double>(groups);
}
BENCHMARK(BM_CityEnumerationPruned)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_CityPackRequests(benchmark::State& state) {
  // Stages 1-2 only (enumeration + set packing): isolates how much of the
  // frame the matching stage costs on top.
  const auto requests = make_city_requests(static_cast<std::size_t>(state.range(0)), 24);
  core::SharingParams params;
  params.grouping = city_group_options();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pack_requests(requests, kOracle, params));
  }
}
BENCHMARK(BM_CityPackRequests)->Arg(1000)->Arg(2000)->Unit(benchmark::kMillisecond);

core::SharingParams city_sharing_params() {
  core::SharingParams params;
  params.grouping = city_group_options();
  params.preference.passenger_threshold_km = 2.0;
  params.preference.taxi_threshold_score = 8.0;
  params.candidate_taxis_per_unit = 8;
  return params;
}

void BM_CitySharingFramePruned(benchmark::State& state) {
  const auto requests = make_city_requests(static_cast<std::size_t>(state.range(0)), 24);
  Rng rng(25);
  std::vector<trace::Taxi> taxis;
  for (int t = 0; t < 700; ++t) {  // the paper's New York fleet size
    trace::Taxi taxi;
    taxi.id = t;
    taxi.location = {rng.uniform(0, 40), rng.uniform(0, 40)};
    taxis.push_back(taxi);
  }
  const core::SharingParams params = city_sharing_params();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::dispatch_sharing(taxis, requests, kOracle, params));
  }
}
BENCHMARK(BM_CitySharingFramePruned)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_CitySharingFrameTraced(benchmark::State& state) {
  // Same frame as BM_CitySharingFramePruned but with a live TraceSink and
  // the full per-frame lifecycle -- the delta against the pruned arm is
  // the observability layer's overhead (budget: < 2%).
  const auto requests = make_city_requests(static_cast<std::size_t>(state.range(0)), 24);
  Rng rng(25);
  std::vector<trace::Taxi> taxis;
  for (int t = 0; t < 700; ++t) {
    trace::Taxi taxi;
    taxi.id = t;
    taxi.location = {rng.uniform(0, 40), rng.uniform(0, 40)};
    taxis.push_back(taxi);
  }
  const core::SharingParams params = city_sharing_params();
  obs::TraceSink sink(obs::TraceOptions{.enabled = true, .per_frame = false});
  obs::Activation guard(sink);
  std::uint64_t frame = 0;
  for (auto _ : state) {
    sink.begin_frame(frame++, 0.0);
    benchmark::DoNotOptimize(core::dispatch_sharing(taxis, requests, kOracle, params));
    sink.end_frame();
  }
  state.counters["proposals"] = static_cast<double>(
      sink.aggregate().counters[static_cast<std::size_t>(obs::Counter::kProposals)]);
}
BENCHMARK(BM_CitySharingFrameTraced)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Perturbed-frame mode (--frames N): the simulator's steady state, where
// consecutive frames mostly overlap. Frame 0 enumerates cold; each later
// frame drops a `--churn` fraction of the requests (preserving order,
// like the FIFO pending queue), edits one rider in place, appends fresh
// arrivals, and re-enumerates against the same GroupCache. Warm frames
// replay the groups whose members are all unchanged instead of
// re-deriving and re-evaluating them.

std::vector<trace::Request> perturb_frame(std::vector<trace::Request> requests,
                                          Rng& rng, trace::RequestId& next_id,
                                          double extent_km, double churn_rate) {
  std::vector<trace::Request> next;
  next.reserve(requests.size());
  for (const trace::Request& request : requests) {
    if (rng.uniform(0.0, 1.0) >= churn_rate) next.push_back(request);
  }
  if (!next.empty()) next.front().pickup.x += 0.05;
  const std::size_t arrivals = requests.size() - next.size();
  for (std::size_t added = 0; added < arrivals; ++added) {
    trace::Request request;
    request.id = next_id++;
    request.pickup = {rng.uniform(0.0, extent_km), rng.uniform(0.0, extent_km)};
    const double angle = rng.uniform(0.0, 6.283185307179586);
    const double trip = rng.uniform(1.0, 4.0);
    request.dropoff = {request.pickup.x + trip * std::cos(angle),
                       request.pickup.y + trip * std::sin(angle)};
    next.push_back(request);
  }
  return next;
}

// Full dispatch over the same perturbed frame stream: a persistent STD-P
// dispatcher with the default configuration, driven through hand-built
// DispatchContexts, reporting the cold frame and the warm frames'
// per-stage breakdown. Matched requests deliberately stay in the stream
// (the streaming re-dispatch shape where warm-start hints can fire). The
// fleet is a fixed idle set whose grid is rebuilt every frame, as
// FrameSnapshotter::assemble does.

struct DispatchRunResult {
  double cold_ms = 0.0;
  double warm_mean_ms = 0.0;
  /// Stage times and counters summed over the warm frames only.
  obs::FrameTrace warm;
  int warm_frames = 0;
};

DispatchRunResult run_dispatch(int frames, std::size_t size, double churn_rate) {
  constexpr double kExtentKm = 40.0;
  const DispatchConfig config = DispatchConfig{}
                                    .with_detour_threshold_km(2.0)
                                    .with_passenger_threshold_km(2.0)
                                    .with_taxi_threshold_score(8.0)
                                    .with_candidate_taxis_per_unit(8);
  const auto dispatcher = make_std_p(config);

  Rng rng(25);
  std::vector<trace::Taxi> taxis;
  for (int t = 0; t < 700; ++t) {
    trace::Taxi taxi;
    taxi.id = t;
    taxi.location = {rng.uniform(0, kExtentKm), rng.uniform(0, kExtentKm)};
    taxis.push_back(taxi);
  }

  auto requests = make_city_requests(size, 29);
  packing::GroupCache cache;
  Rng churn(31);
  trace::RequestId next_id = static_cast<trace::RequestId>(size);

  obs::TraceSink sink(obs::TraceOptions{.enabled = true});
  obs::Activation guard(sink);
  DispatchRunResult result;
  double warm_total_ms = 0.0;
  for (int frame = 0; frame < frames; ++frame) {
    const index::SpatialGrid grid(std::span<const trace::Taxi>(taxis), 1.0);
    sim::DispatchContext context;
    context.now_seconds = frame * 60.0;
    context.idle_taxis = taxis;
    context.pending = requests;
    context.oracle = &kOracle;
    context.idle_grid = &grid;
    context.group_cache = &cache;
    sink.begin_frame(static_cast<std::uint64_t>(frame), context.now_seconds);
    const auto start = std::chrono::steady_clock::now();
    const auto assignments = dispatcher->dispatch(context);
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  start)
            .count();
    benchmark::DoNotOptimize(assignments.size());
    sink.end_frame();
    if (frame == 0) {
      result.cold_ms = ms;
    } else {
      warm_total_ms += ms;
    }
    requests = perturb_frame(std::move(requests), churn, next_id, kExtentKm, churn_rate);
  }
  for (const obs::FrameTrace& trace : sink.frames()) {
    if (trace.frame == 0) continue;
    ++result.warm_frames;
    for (std::size_t i = 0; i < obs::kStageCount; ++i) {
      result.warm.stage_ns[i] += trace.stage_ns[i];
    }
    for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
      result.warm.counters[i] += trace.counters[i];
    }
  }
  result.warm_mean_ms =
      frames > 1 ? warm_total_ms / static_cast<double>(frames - 1) : 0.0;
  return result;
}

void print_dispatch_frames(int frames, const std::vector<std::size_t>& sizes,
                           double churn_rate) {
  const auto stage_ms = [](const DispatchRunResult& r, obs::Stage stage) {
    if (r.warm_frames == 0) return 0.0;
    return static_cast<double>(r.warm.stage_ns[static_cast<std::size_t>(stage)]) / 1e6 /
           static_cast<double>(r.warm_frames);
  };
  const auto counter = [](const DispatchRunResult& r, obs::Counter c) {
    return static_cast<unsigned long long>(
        r.warm.counters[static_cast<std::size_t>(c)]);
  };
  std::printf("\nFull STD-P dispatch frames, 700 idle taxis (~%.0f%% churn/frame)\n",
              churn_rate * 100.0);
  std::printf("Warm-frame stage means in ms; counters summed over warm frames.\n");
  std::printf("%-10s %-9s %-10s %-9s %-8s %-9s %-8s %-7s %-9s %-10s\n", "requests",
              "cold_ms", "warm_mean", "match_ms", "cand_ms", "exact_ms", "reused", "seeds",
              "batches", "proposals");
  for (const std::size_t size : sizes) {
    const DispatchRunResult r = run_dispatch(frames, size, churn_rate);
    std::printf("%-10zu %-9.2f %-10.2f %-9.2f %-8.2f %-9.2f %-8llu %-7llu %-9llu %-10llu\n",
                size, r.cold_ms, r.warm_mean_ms, stage_ms(r, obs::Stage::kStableMatching),
                stage_ms(r, obs::Stage::kCandidateGen), stage_ms(r, obs::Stage::kExactEval),
                counter(r, obs::Counter::kCandidatesReused),
                counter(r, obs::Counter::kDaWarmSeeds),
                counter(r, obs::Counter::kExactParallelBatches),
                counter(r, obs::Counter::kProposals));
  }
}

/// Bit-for-bit record equality: same members, same order, same doubles.
bool same_groups(const std::vector<packing::ShareGroup>& a,
                 const std::vector<packing::ShareGroup>& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  if (a.size() != b.size()) return false;
  for (std::size_t g = 0; g < a.size(); ++g) {
    if (!(a[g].member_indices == b[g].member_indices) ||
        !same(a[g].pooled_length_km, b[g].pooled_length_km) ||
        !same(a[g].direct_sum_km, b[g].direct_sum_km) ||
        !same(a[g].max_detour_km, b[g].max_detour_km)) {
      return false;
    }
    for (std::size_t m = 0; m < a[g].member_direct_km.size(); ++m) {
      if (!same(a[g].member_direct_km[m], b[g].member_direct_km[m])) return false;
    }
  }
  return true;
}

int run_frames_mode(int frames, bool quick, double churn_rate) {
  constexpr double kExtentKm = 40.0;
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{500} : std::vector<std::size_t>{1000, 2000, 5000};
  std::printf("Perturbed-frame enumeration (~%.0f%% churn/frame, persistent GroupCache)\n",
              churn_rate * 100.0);
  std::printf("%-10s %-8s %-12s %-12s %-10s %-14s %-8s\n", "requests", "frames",
              "cold_ms", "warm_mean", "hits", "revalidations", "groups");
  for (const std::size_t size : sizes) {
    auto requests = make_city_requests(size, 29);
    const packing::GroupOptions options = city_group_options();
    packing::GroupCache cache;
    Rng churn(31);
    trace::RequestId next_id = static_cast<trace::RequestId>(size);
    double cold_ms = 0.0;
    double warm_total_ms = 0.0;
    std::size_t groups = 0;
    for (int frame = 0; frame < frames; ++frame) {
      const auto start = std::chrono::steady_clock::now();
      const auto enumerated =
          packing::enumerate_share_groups(requests, kOracle, options, 4, &cache);
      const double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                    start)
              .count();
      groups = enumerated.size();
      if (frame > 0 && !same_groups(enumerated, packing::enumerate_share_groups(
                                                    requests, kOracle, options, 4))) {
        std::fprintf(stderr,
                     "micro_sharing: warm frame %d of the %zu-request stream differs from "
                     "an uncached enumeration\n",
                     frame, size);
        return 1;
      }
      if (frame == 0) {
        cold_ms = ms;
      } else {
        warm_total_ms += ms;
      }
      requests = perturb_frame(std::move(requests), churn, next_id, kExtentKm, churn_rate);
    }
    const double warm_mean =
        frames > 1 ? warm_total_ms / static_cast<double>(frames - 1) : 0.0;
    std::printf("%-10zu %-8d %-12.2f %-12.2f %-10llu %-14llu %-8zu\n", size, frames,
                cold_ms, warm_mean,
                static_cast<unsigned long long>(cache.stats().hits),
                static_cast<unsigned long long>(cache.stats().stores), groups);
  }
  print_dispatch_frames(frames, sizes, churn_rate);
  return 0;
}

}  // namespace

// Custom main: `--quick` rewrites the flag set for the CI smoke run --
// everything but the 5000-request city arm, at a reduced per-benchmark
// measurement time.
int main(int argc, char** argv) {
  bool quick = false;
  int frames = 0;
  double churn_rate = 0.15;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--quick") {
      quick = true;
      continue;
    }
    if (arg == "--frames" && i + 1 < argc) {
      frames = std::atoi(argv[++i]);
      continue;
    }
    if (arg.rfind("--frames=", 0) == 0) {
      frames = std::atoi(argv[i] + 9);
      continue;
    }
    if (arg == "--churn" && i + 1 < argc) {
      churn_rate = std::atof(argv[++i]);
      continue;
    }
    if (arg.rfind("--churn=", 0) == 0) {
      churn_rate = std::atof(argv[i] + 8);
      continue;
    }
    args.push_back(argv[i]);
  }
  if (frames > 0) return run_frames_mode(frames, quick, churn_rate);
  static std::string filter =
      "--benchmark_filter=-BM_CityEnumerationPruned/5000";
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
