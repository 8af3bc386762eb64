#include "workload.h"

#include <stdexcept>

#include "geo/import/dimacs.h"
#include "trace/synthetic.h"

namespace perfbench {

using namespace o2o;

namespace {
constexpr std::uint64_t kRoadGraphSeed = 15;
}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // The paper's NY fleet in the morning rush: big frames, so the
      // codec dominates; Euclidean, no packing.
      {"ny-rush-nstd", "nstd-p", true, 700, 1.0, 7.0, 120, false},
      // Boston on a road graph with ride sharing: group enumeration and
      // the Dijkstra oracle dominate, the codec does little.
      {"boston-road-share", "std-p", false, 300, 2.0, 7.0, 90, true},
      // The fleet nearly keeps up with demand, so the pending set turns
      // over fast: the GroupCache writes far more than it replays.
      {"boston-surplus-share", "std-p", false, 800, 4.0, 7.0, 120, false},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

DispatchConfig served_config() {
  return DispatchConfig{}.with_passenger_threshold_km(10.0).with_taxi_threshold_score(1.0);
}

City make_city(const WorkloadSpec& spec, Seeds seeds, const std::string& work_dir) {
  const trace::CityModel model =
      spec.new_york ? trace::CityModel::new_york() : trace::CityModel::boston();
  trace::GenerationOptions gen;
  gen.duration_seconds = spec.window_minutes * 60.0;
  gen.start_hour = spec.start_hour;
  gen.rate_scale = spec.rate_scale;
  gen.seed = seeds.trace;
  trace::FleetOptions fleet_options;
  fleet_options.taxi_count = spec.taxis;
  fleet_options.seed = seeds.fleet;

  City city{trace::generate(model, gen), trace::make_fleet(model.region, fleet_options),
            {}, served_config(), {"--stdio", "--dispatcher=" + spec.kind}};

  geo::DistanceBackendSpec backend_spec;
  if (spec.road) {
    // 21 x 21 intersections with 1 km blocks cover the Boston region;
    // zero jitter keeps every arc weight an integer, so the DIMACS
    // round trip the server's import performs is exact. The graph is
    // part of the workload, not of the draw: its seed is fixed.
    const geo::RoadNetwork network = geo::RoadNetwork::make_grid_city(
        21, 21, 1.0, 0.0, 0.15, kRoadGraphSeed, model.region.lo);
    const std::string gr = work_dir + "/city.gr";
    const std::string co = work_dir + "/city.co";
    if (!geo::write_dimacs_files(network, gr, co)) {
      throw std::runtime_error("cannot write the road graph under " + work_dir);
    }
    const std::string text = "dijkstra:" + gr + "," + co;
    if (!geo::parse_distance_backend(text, &backend_spec)) {
      throw std::runtime_error("bad backend spec " + text);
    }
    city.server_args.push_back("--distance-backend=" + text);
  }
  city.backend = geo::make_distance_oracle(backend_spec);
  city.config.with_distance_backend(city.backend);
  if (spec.road) city.config.with_road_network(city.backend.network.get());
  return city;
}

bool generator_only(std::string_view key) { return key == "road_network"; }

std::vector<std::pair<std::string, std::string>> served_describe(
    const DispatchConfig& config) {
  std::vector<std::pair<std::string, std::string>> out;
  for (auto& entry : config.describe()) {
    if (generator_only(entry.first)) continue;
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace perfbench
