// The benchmark's workloads: one generated city window each, with the
// fleet, distance backend and dispatcher the o2o_serve child is started
// with. Everything is derived from two seeds, so the same seeds give the
// same bytes on the wire.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/dispatch_config.h"
#include "geo/backend.h"
#include "trace/fleet.h"
#include "trace/trace.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::string kind;             ///< o2o_serve --dispatcher value
  bool new_york = false;        ///< NY city model (else Boston)
  int taxis = 0;
  double rate_scale = 1.0;      ///< multiplies the model's demand
  double start_hour = 7.0;      ///< clock hour of the window's first second
  double window_minutes = 60;   ///< generated demand; the replay adds the drain
  bool road = false;            ///< dijkstra over an exported grid city
  /// The demand draw every run replays unless --trace-seed overrides it;
  /// --seed varies the fleet. README.md names the held-out trace seed.
  std::uint64_t trace_seed = 2017;
};

/// The three workloads of BENCHMARK.json, by name.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

struct Seeds {
  std::uint64_t trace = 1;
  std::uint64_t fleet = 1;
};

/// The configuration o2o_serve ships with (examples/o2o_serve.cpp):
/// passenger threshold 10 km, taxi threshold 1.0, θ = 5 km default.
o2o::DispatchConfig served_config();

/// One pass's generated inputs. The road graph, when the workload has
/// one, is exported as DIMACS files under `work_dir` and read back
/// through the backend factory, exactly as the server reads it.
struct City {
  o2o::trace::Trace trace;
  std::vector<o2o::trace::Taxi> fleet;
  o2o::geo::DistanceBackend backend;
  o2o::DispatchConfig config;   ///< served_config + backend (+ road kinematics)
  std::vector<std::string> server_args;  ///< flags that reproduce `config` in o2o_serve
};

City make_city(const WorkloadSpec& spec, Seeds seeds, const std::string& work_dir);

/// describe() keys o2o_serve cannot know about: the generator drives
/// taxis on the road graph (simulation-only kinematics).
bool generator_only(std::string_view key);

/// `config.describe()` without the generator-only keys.
std::vector<std::pair<std::string, std::string>> served_describe(
    const o2o::DispatchConfig& config);

}  // namespace perfbench
