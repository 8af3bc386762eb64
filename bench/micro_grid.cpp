// Plain-timer harness for SpatialGrid's radius query at the shape of one
// ny-rush-nstd frame: about 130 idle taxis over a 56 x 71 km box, indexed
// with 1 km cells, and one query per pending order (1,214) at the 10 km
// passenger threshold.
//
//   ./build/bench/micro_grid [--quick] [--rounds=N]
//
// Prints the median ns per query and per rebuild over the rounds. Every
// round also counts the query hits and compares them with a brute-force
// scan of the fleet; the harness exits 1 if they ever differ.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "index/spatial_grid.h"
#include "trace/fleet.h"
#include "util/rng.h"

namespace {

using namespace o2o;
using Clock = std::chrono::steady_clock;

constexpr double kWidthKm = 56.0;
constexpr double kHeightKm = 71.0;
constexpr std::size_t kIdleTaxis = 130;
constexpr std::size_t kQueries = 1214;
constexpr double kRadiusKm = 10.0;
constexpr double kCellKm = 1.0;

geo::Point random_point(Rng& rng) {
  return {rng.uniform(0.0, kWidthKm), rng.uniform(0.0, kHeightKm)};
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int rounds = 15;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(arg, "--rounds=", 9) == 0) {
      rounds = std::max(1, std::atoi(arg + 9));
    } else {
      std::fprintf(stderr, "usage: micro_grid [--quick] [--rounds=N]\n");
      return 2;
    }
  }
  if (quick) rounds = std::min(rounds, 3);
  const int passes = quick ? 20 : 200;  // query sweeps per round

  Rng rng(2017);
  std::vector<trace::Taxi> taxis(kIdleTaxis);
  for (std::size_t t = 0; t < taxis.size(); ++t) {
    taxis[t] = {static_cast<trace::TaxiId>(t), random_point(rng), 4};
  }
  std::vector<geo::Point> queries(kQueries);
  for (geo::Point& q : queries) q = random_point(rng);

  std::size_t expected_hits = 0;
  for (const geo::Point& q : queries) {
    for (const trace::Taxi& taxi : taxis) {
      if (geo::squared_distance(q, taxi.location) <= kRadiusKm * kRadiusKm) ++expected_hits;
    }
  }

  index::SpatialGrid grid(std::span<const trace::Taxi>(taxis), kCellKm);
  std::vector<std::int32_t> hits;
  hits.reserve(taxis.size());
  std::vector<double> query_ns;
  std::vector<double> rebuild_ns;
  for (int round = 0; round < rounds; ++round) {
    const auto rebuild_start = Clock::now();
    for (int pass = 0; pass < passes; ++pass) grid.rebuild(taxis);
    rebuild_ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - rebuild_start)
                             .count() /
                         passes);

    std::size_t found = 0;
    const auto query_start = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      for (const geo::Point& q : queries) {
        hits.clear();
        grid.within_radius_into(q, kRadiusKm, hits);
        found += hits.size();
      }
    }
    query_ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - query_start)
                           .count() /
                       static_cast<double>(passes * kQueries));
    if (found != expected_hits * static_cast<std::size_t>(passes)) {
      std::fprintf(stderr, "micro_grid: %zu hits per sweep, brute force finds %zu\n",
                   found / static_cast<std::size_t>(passes), expected_hits);
      return 1;
    }
  }

  std::printf("micro_grid: %zu taxis in %.0f x %.0f km, %.0f km cells (%zu cells), "
              "%zu queries at %.0f km\n",
              taxis.size(), kWidthKm, kHeightKm, kCellKm, grid.cell_count(), kQueries,
              kRadiusKm);
  std::printf("  hits per sweep    %zu (%.2f per query, matches brute force)\n", expected_hits,
              static_cast<double>(expected_hits) / kQueries);
  std::printf("  query             %.1f ns (median of %d rounds)\n", median(query_ns), rounds);
  std::printf("  rebuild           %.1f ns (median of %d rounds)\n", median(rebuild_ns), rounds);
  return 0;
}
