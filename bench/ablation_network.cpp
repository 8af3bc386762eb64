// Ablation: the distance substrate. The paper models the city as a
// Euclidean surface; this bench re-runs the non-sharing comparison with
// D(.,.) supplied by (a) straight-line distance, (b) a circuity-scaled
// oracle (the standard 1.3x road-distance approximation) and (c) true
// shortest paths priced by cached Dijkstra trees -- in case (c) the
// taxis also *drive* along the network's shortest paths, so distances,
// travel times and metrics are all road-consistent. The qualitative
// ordering of the algorithms should survive the change of substrate --
// that is what this bench checks.
//
//   ./build/bench/ablation_network [--graph=CITY.gr,CITY.co | --graph=CITY.osm]
//
// Without --graph the road arms run on a synthetic 21x21 jittered street
// grid with 15% of redundant segments closed; with --graph they run on
// the imported city graph (every arm resolved through the pluggable
// distance-backend factory, see geo/backend.h).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "geo/backend.h"
#include "geo/road_network.h"

int main(int argc, char** argv) {
  using namespace o2o;
  bench::PaperParams params;

  std::string graph_arg;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--graph=", 8) == 0) {
      graph_arg = arg + 8;
    } else {
      std::fprintf(stderr, "usage: ablation_network [--graph=GR,CO|--graph=X.osm]\n");
      return 2;
    }
  }

  trace::CityModel model = trace::CityModel::boston();
  trace::GenerationOptions gen;
  gen.duration_seconds = 2.0 * 3600.0;
  gen.start_hour = 10.0;
  gen.seed = 31;
  const trace::Trace city = trace::generate(model, gen);

  trace::FleetOptions fleet_options;
  fleet_options.taxi_count = 150;
  fleet_options.seed = 42;
  const auto fleet = trace::make_fleet(model.region, fleet_options);

  // The road substrate: an imported city graph when --graph is given,
  // otherwise a 21x21 street grid laid over the [-10,10]^2 region,
  // jittered, with 15% of redundant segments closed.
  geo::DistanceBackendSpec road_source;
  road_source.kind = geo::DistanceBackendKind::kDijkstra;
  if (graph_arg.empty()) {
    road_source.network = std::make_shared<geo::RoadNetwork>(
        geo::RoadNetwork::make_grid_city(21, 21, 1.0, 0.15, 0.15, 9, {-10.0, -10.0}));
  } else if (!geo::parse_distance_backend("dijkstra:" + graph_arg, &road_source)) {
    std::fprintf(stderr, "unrecognized --graph source: %s\n", graph_arg.c_str());
    return 2;
  }

  struct NamedBackend {
    const char* name;
    geo::DistanceBackend backend;
    bool drive_network;  ///< drive along the network's shortest paths
  };
  std::vector<NamedBackend> arms;
  try {
    arms.push_back({"euclidean", geo::make_distance_oracle({}), false});
    geo::DistanceBackendSpec circuity;
    circuity.kind = geo::DistanceBackendKind::kCircuity;
    circuity.circuity_factor = 1.3;
    arms.push_back({"circuity_1.3", geo::make_distance_oracle(circuity), false});
    arms.push_back({"road_dijkstra", geo::make_distance_oracle(road_source), true});
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cannot resolve backend: %s\n", error.what());
    return 2;
  }

  std::printf("# Distance-substrate ablation -- Boston workload (%zu requests, %d taxis)\n",
              city.size(), fleet_options.taxi_count);
  const auto& road = *arms[2].backend.network;
  std::printf("# road graph: %zu nodes / %zu edges, fingerprint %016llx%s\n",
              road.node_count(), road.edge_count(),
              static_cast<unsigned long long>(arms[2].backend.graph_fingerprint),
              graph_arg.empty() ? " (synthetic grid)" : "");
  std::printf(
      "\noracle,algorithm,served,cancelled,mean_delay_min,mean_passenger_km,"
      "mean_taxi_km,total_driven_km\n");
  for (const NamedBackend& named : arms) {
    for (auto& dispatcher : bench::nonsharing_roster(params)) {
      sim::SimulatorConfig config = bench::simulator_config(params);
      config.road_network = named.drive_network ? named.backend.network.get() : nullptr;
      sim::Simulator simulator(city, fleet, *named.backend.oracle, config);
      const auto report = simulator.run(*dispatcher);
      std::printf("%s,%s,%zu,%zu,%.3f,%.3f,%.3f,%.1f\n", named.name,
                  report.dispatcher_name.c_str(), report.served, report.cancelled,
                  report.delay_stats.mean(), report.passenger_stats.mean(),
                  report.taxi_stats.mean(), report.total_taxi_distance_km);
    }
  }
  return 0;
}
