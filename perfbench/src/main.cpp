// perfbench: closed-loop city replays through the o2o_serve binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server PATH [--work-dir DIR] [--trace-seed N]
//
// A run replays windows of the workload's city in whole cycles of four
// fleets until S seconds have been measured. Window i uses the workload's
// trace seed (or --trace-seed) and fleet seed N * 1000 + i % 4. Each
// window generates its inputs, starts a fresh `o2o_serve --stdio` child,
// probes it with an empty frame, then
// replays the window one frame at a time: write the frame's event lines,
// wait for its frame_response, feed the assignments back into the
// simulator, repeat. Each window's report is diffed field by field
// against a batch Simulator::run of the same inputs, and the server's
// --print-config must agree with the generator's DispatchConfig before
// anything runs.
//
// With --trace 1 the run measures half as long out of process, then
// replays window 0 in process, untraced and traced (see layers.h), and
// prints the per-layer metrics instead of the end-to-end ones. The last
// stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/dispatch_config.h"
#include "layers.h"
#include "server.h"
#include "service/codec.h"
#include "service/replay.h"
#include "sim/simulator.h"
#include "workload.h"

using namespace o2o;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string work_dir = ".bench_build/work";
  std::optional<std::uint64_t> trace_seed;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--server") {
      args.server = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-seed") {
      args.trace_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && !args.workload.empty() && !args.server.empty();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// Field-by-field report diff, as o2o_serve --replay does it. Returns the
/// number of mismatched fields and names the first in `first`.
int diff_reports(const sim::SimulationReport& batch, const sim::SimulationReport& streamed,
                 std::string& first) {
  int mismatches = 0;
  const auto note = [&](const std::string& what) {
    if (mismatches++ == 0) first = what;
  };
  if (batch.served != streamed.served) note("served");
  if (batch.cancelled != streamed.cancelled) note("cancelled");
  if (batch.total_taxi_distance_km != streamed.total_taxi_distance_km) {
    note("total_taxi_distance_km");
  }
  if (batch.requests.size() != streamed.requests.size()) note("request_count");
  const std::size_t n = std::min(batch.requests.size(), streamed.requests.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = batch.requests[i];
    const auto& b = streamed.requests[i];
    if (a.id == b.id && a.dispatch_time == b.dispatch_time &&
        a.pickup_time == b.pickup_time && a.dropoff_time == b.dropoff_time &&
        a.dispatch_delay_minutes == b.dispatch_delay_minutes &&
        a.passenger_dissatisfaction_km == b.passenger_dissatisfaction_km &&
        a.shared == b.shared && a.cancelled == b.cancelled) {
      continue;
    }
    note("request " + std::to_string(a.id));
  }
  return mismatches;
}

/// Compares `o2o_serve --print-config` (same flags) with the generator's
/// config. Returns the server's config lines, or nullopt on disagreement.
std::optional<std::vector<std::string>> check_server_config(const Args& args,
                                                            const WorkloadSpec& spec,
                                                            const City& city) {
  std::vector<std::string> flags;
  for (const std::string& flag : city.server_args) {
    if (flag != "--stdio") flags.push_back(flag);
  }
  flags.push_back("--print-config");
  bool ok = false;
  const std::string out = run_capture(args.server, flags, ok);
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s --print-config failed\n", args.server.c_str());
    return std::nullopt;
  }
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t end = out.find('\n', pos);
    lines.push_back(out.substr(pos, end == std::string::npos ? end : end - pos));
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  std::vector<std::string> expected;
  expected.push_back("dispatcher " + spec.kind);
  for (const auto& [key, value] : served_describe(city.config)) {
    expected.push_back(key + "=" + value);
  }
  std::vector<std::string> got;
  for (const std::string& line : lines) {
    const std::size_t dispatcher = line.find("dispatcher ");
    if (line.rfind("o2o_serve", 0) == 0 && dispatcher != std::string::npos) {
      got.push_back(line.substr(dispatcher));
    } else if (line.rfind("  ", 0) == 0 && line.find('=') != std::string::npos) {
      const std::string entry = line.substr(2);
      if (!generator_only(entry.substr(0, entry.find('=')))) got.push_back(entry);
    }
  }
  if (got != expected) {
    for (const std::string& want : expected) {
      if (std::find(got.begin(), got.end(), want) == got.end()) {
        std::fprintf(stderr, "perfbench: server config lacks '%s'\n", want.c_str());
      }
    }
    for (const std::string& have : got) {
      if (std::find(expected.begin(), expected.end(), have) == expected.end()) {
        std::fprintf(stderr, "perfbench: server config has '%s'\n", have.c_str());
      }
    }
    return std::nullopt;
  }
  return got;
}

/// One out-of-process pass: set up, spawn, probe, replay, reap.
struct PassResult {
  double setup_s = 0.0;
  std::vector<double> frame_ms;
  std::vector<double> barrier_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  ServerProcess::Exit exit;
  std::string error;
};

PassResult run_pass(const Args& args, const WorkloadSpec& spec, Seeds seeds,
                    const std::string& work_dir, const sim::SimulationReport& reference) {
  PassResult pass;
  const auto setup_start = Clock::now();
  const City city = make_city(spec, seeds, work_dir);
  ServerProcess server(args.server, city.server_args, work_dir + "/server.log");
  const std::string probe =
      service::encode_event(api::RideEvent::make_end_frame(0, 0.0)) + "\n";
  std::string line;
  std::optional<api::FrameResponse> probed;
  if (server.write_all(probe) && server.read_line(line)) {
    probed = service::decode_response(line);
  }
  pass.setup_s = seconds_since(setup_start);
  if (!probed || !probed->assignments.empty()) {
    pass.error = "the server did not answer the empty probe frame";
    pass.exit = server.finish();
    pass.failed = pass.attempted = 1;
    return pass;
  }

  std::string body;
  const auto serve = [&](const sim::DispatchContext& context, std::uint64_t frame) {
    ++pass.attempted;
    const std::vector<std::string> lines =
        service::encode_frame_events(service::snapshot_to_request(context, frame));
    body.clear();
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      body += lines[i];
      body += '\n';
    }
    const std::string barrier = lines.back() + "\n";
    const auto start = Clock::now();
    bool ok = server.write_all(body);
    const auto barrier_start = Clock::now();
    ok = ok && server.write_all(barrier) && server.read_line(line);
    const auto done = Clock::now();
    std::optional<api::FrameResponse> response;
    if (ok) response = service::decode_response(line);
    if (!response || response->frame != frame) {
      ++pass.failed;
      if (pass.error.empty()) {
        pass.error = "frame " + std::to_string(frame) + " was not answered or undecodable";
      }
      return std::vector<sim::DispatchAssignment>{};
    }
    pass.frame_ms.push_back(std::chrono::duration<double, std::milli>(done - start).count());
    pass.barrier_ms.push_back(
        std::chrono::duration<double, std::milli>(done - barrier_start).count());
    return service::response_to_assignments(*response);
  };
  sim::Simulator simulator(city.trace, city.fleet, *city.backend.oracle,
                           city.config.simulation());
  const sim::SimulationReport report = simulator.run_streamed(serve, spec.kind);
  pass.exit = server.finish();
  if (!pass.exit.clean && pass.error.empty()) pass.error = "the server did not exit cleanly";

  std::string first;
  if (diff_reports(reference, report, first) != 0) {
    // A divergent report cannot be pinned to one frame: fail them all.
    pass.failed = pass.attempted;
    if (pass.error.empty()) pass.error = "streamed report differs from batch at " + first;
  }
  return pass;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
    std::fprintf(stderr, "  %-38s %14.6g %s\n", metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--server PATH [--work-dir DIR] [--trace-seed N]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const std::uint64_t trace_seed = args.trace_seed.value_or(spec->trace_seed);
  // Window i of a run replays the workload's demand with fleet seed
  // seed * 1000 + i % kFleetsPerRun: the frame statistics pool several
  // fleets per run, and each fleet's batch reference is computed once.
  constexpr std::uint64_t kFleetsPerRun = 4;
  const auto window_seeds = [&](std::uint64_t window) {
    return Seeds{trace_seed, args.seed * 1000 + window % kFleetsPerRun};
  };
  const std::string work_dir = args.work_dir + "/" + spec->name;
  std::filesystem::create_directories(work_dir);

  try {
    const City first_city = make_city(*spec, window_seeds(0), work_dir);
    const auto config_lines = check_server_config(args, *spec, first_city);
    if (!config_lines) {
      std::fprintf(stderr, "perfbench: server config disagrees with the generator; refusing\n");
      return 1;
    }
    for (const std::string& line : *config_lines) {
      if (line.rfind("dispatcher", 0) == 0 || line.rfind("distance_", 0) == 0) {
        std::printf("server config: %s\n", line.c_str());
      }
    }
    // The correctness reference of a window: one batch run of the same
    // inputs, in process.
    const auto batch_reference = [&](std::uint64_t window) {
      const City city = make_city(*spec, window_seeds(window), work_dir);
      sim::Simulator batch(city.trace, city.fleet, *city.backend.oracle,
                           city.config.simulation());
      return batch.run(*make_dispatcher(spec->kind, city.config));
    };

    // Out-of-process passes, one window each, each on a fresh server.
    const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
    std::vector<double> setup_s;
    std::vector<double> frame_ms;
    std::vector<double> barrier_ms;
    std::vector<double> rss_mb;
    double first_window_ms = 0.0;
    double cpu_s = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_error;
    std::vector<sim::SimulationReport> references;  // one per fleet
    double measured_s = 0.0;
    // Whole cycles of the fleets only, so every run weighs them equally.
    for (std::uint64_t window = 0; window % kFleetsPerRun != 0 || measured_s < budget;
         ++window) {
      if (references.size() <= window % kFleetsPerRun) {
        references.push_back(batch_reference(window));
      }
      const auto pass_start = Clock::now();
      PassResult pass = run_pass(args, *spec, window_seeds(window), work_dir,
                                 references[window % kFleetsPerRun]);
      measured_s += seconds_since(pass_start);
      if (window == 0) first_window_ms = mean(pass.frame_ms);
      std::fprintf(stderr,
                   "perfbench: window %llu: %zu frames, mean %.3f ms, p50 %.3f ms, "
                   "setup %.3f s, server cpu %.2f s, rss %.1f MB\n",
                   static_cast<unsigned long long>(window), pass.frame_ms.size(),
                   mean(pass.frame_ms), percentile(pass.frame_ms, 0.5), pass.setup_s,
                   pass.exit.cpu_s, pass.exit.peak_rss_mb);
      setup_s.push_back(pass.setup_s);
      frame_ms.insert(frame_ms.end(), pass.frame_ms.begin(), pass.frame_ms.end());
      barrier_ms.insert(barrier_ms.end(), pass.barrier_ms.begin(), pass.barrier_ms.end());
      rss_mb.push_back(pass.exit.peak_rss_mb);
      cpu_s += pass.exit.cpu_s;
      attempted += pass.attempted;
      failed += pass.failed;
      if (!pass.error.empty()) {
        first_error = "window " + std::to_string(window) + ": " + pass.error;
        break;
      }
    }
    const sim::SimulationReport& first_reference = references.front();
    const double answered = static_cast<double>(frame_ms.size());
    std::fprintf(stderr,
                 "perfbench: %s trace seed %llu, fleet seeds %llu..: %zu windows, %zu frames "
                 "answered\n",
                 spec->name.c_str(), static_cast<unsigned long long>(trace_seed),
                 static_cast<unsigned long long>(args.seed * 1000), setup_s.size(),
                 frame_ms.size());

    std::vector<Metric> metrics;
    if (!args.trace) {
      const double latency_s = std::accumulate(frame_ms.begin(), frame_ms.end(), 0.0) / 1e3;
      metrics = {
          {"setup_s", percentile(setup_s, 0.5), "s"},
          {"frame_ms_p50", percentile(frame_ms, 0.5), "ms"},
          {"frame_ms_p95", percentile(frame_ms, 0.95), "ms"},
          {"barrier_ms_p50", percentile(barrier_ms, 0.5), "ms"},
          {"frames_per_s", latency_s > 0.0 ? answered / latency_s : 0.0, "1/s"},
          {"server_cpu_ms_per_frame", answered > 0.0 ? cpu_s * 1e3 / answered : 0.0, "ms"},
          {"server_peak_rss_mb", *std::max_element(rss_mb.begin(), rss_mb.end()), "MB"},
      };
    } else if (first_error.empty()) {
      // In process: the untraced wire path, then the traced layer replay.
      const auto check = [&](const InProcessResult& run, const char* what) {
        attempted += run.frame_ms.size();
        failed += run.errors;
        std::string first;
        if (diff_reports(first_reference, run.report, first) != 0) {
          failed += run.frame_ms.size() - run.errors;
          if (first_error.empty()) first_error = std::string(what) + " report differs at " + first;
        }
        if (first_error.empty() && !run.first_error.empty()) first_error = run.first_error;
      };
      // Window 0 again, on fresh inputs (and oracle caches) for each run,
      // as each server gets.
      const InProcessResult untraced =
          run_in_process(*spec, make_city(*spec, window_seeds(0), work_dir), {});
      check(untraced, "untraced in-process");
      const InProcessResult traced = run_in_process(
          *spec, make_city(*spec, window_seeds(0), work_dir), {.traced = true});
      check(traced, "traced in-process");
      const double inproc_ms = mean(untraced.frame_ms);
      metrics = {
          {"frame_error_rate",
           attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
           "ratio"},
          {"transport.ms_per_frame", first_window_ms - inproc_ms, "ms"},
          {"trace.overhead_ms_per_frame", mean(traced.frame_ms) - inproc_ms, "ms"},
          {"service.inproc.frame_ms", inproc_ms, "ms"},
      };
      const std::vector<Metric> layers = layer_metrics(traced);
      metrics.insert(metrics.end(), layers.begin(), layers.end());
    }

    const bool correct = first_error.empty() && failed == 0 && attempted > 0;
    if (!correct) {
      std::fprintf(stderr, "perfbench: FAILED: %s\n",
                   first_error.empty() ? "no frame was answered" : first_error.c_str());
    }
    print_result(correct, std::max<std::uint64_t>(attempted, 1), failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
