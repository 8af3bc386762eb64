// In-process runs of one workload: the same closed loop as the wire run,
// but the generator calls the service's public functions itself, so each
// one can be timed. The traced variant additionally activates an
// obs::TraceSink and, after every frame, replays the frame through the
// layers below the service (spatial index, preference profile, deferred
// acceptance, share-group enumeration, set packing) from the benchmark's
// own code, checking that the replay reproduces the served assignments.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/api.h"
#include "sim/report.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct InProcessOptions {
  bool traced = false;            ///< sink + layer replay
  bool decorate_service = false;  ///< the served session queries through a CountingOracle
  bool keep_responses = false;    ///< keep every decoded FrameResponse
};

struct InProcessResult {
  o2o::sim::SimulationReport report;
  /// Wire-path time per frame: decode the event lines, submit them,
  /// next_response, encode the response.
  std::vector<double> frame_ms;
  std::vector<o2o::api::FrameResponse> responses;  ///< keep_responses only
  std::uint64_t errors = 0;   ///< frames whose round trip or layer replay disagreed
  std::string first_error;
  std::map<std::string, double> sums;  ///< traced only: per-layer sums over frames
};

InProcessResult run_in_process(const WorkloadSpec& spec, const City& city,
                               const InProcessOptions& options);

/// The per-layer metrics of a traced run (per-frame means unless the
/// unit says otherwise).
std::vector<Metric> layer_metrics(const InProcessResult& traced);

}  // namespace perfbench
