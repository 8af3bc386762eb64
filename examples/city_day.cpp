// city_day: simulate a full day of Boston-scale dispatching and compare
// the stable dispatcher against a baseline, with the frame length and
// cancellation-timeout ablations DESIGN.md calls out.
//
//   ./build/examples/city_day [taxis] [rate_scale] [seed]
//       [--trace-json=FILE] [--trace-csv=FILE] [--trace-summary] [--sharing]
//       [--backend=SPEC]
//
// `--backend=` selects the distance backend through the pluggable
// factory grammar (see geo/backend.h): euclid (default), manhattan,
// circuity[:F], dijkstra:CITY.gr,CITY.co or dijkstra:CITY.osm.
// Network-backed runs price every leg on the imported road graph, and
// exported traces carry the graph fingerprint in their config snapshot.
//
// The trace flags run the headline stable dispatch with a TraceSink
// attached and export the per-frame observability records (stage
// timings, counters, gauge peaks) as JSON / CSV, or print the
// human-readable per-stage summary table. `--sharing` swaps the headline
// run to the ride-sharing stable dispatcher, which exercises the group
// enumeration pipeline and so populates its counters (cone_rejects,
// simd_batches, simd_batch_occupancy, cache_hits, cache_revalidations)
// in the summary.
//
// Prints a per-3-hour table (the Fig. 7 view) and an ablation of the
// batching interval.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "baselines/nonsharing.h"
#include "core/dispatch_config.h"
#include "geo/backend.h"
#include "sim/report_io.h"
#include "sim/simulator.h"
#include "trace/fleet.h"
#include "trace/synthetic.h"

using namespace o2o;

namespace {

DispatchConfig tuned_config() {
  return DispatchConfig{}.with_passenger_threshold_km(10.0).with_taxi_threshold_score(1.0);
}

sim::SimulationReport run_once(const trace::Trace& city,
                               const std::vector<trace::Taxi>& fleet,
                               const geo::DistanceOracle& oracle,
                               sim::Dispatcher& dispatcher, double frame_seconds,
                               double timeout_seconds,
                               obs::TraceSink* sink = nullptr) {
  const DispatchConfig config = tuned_config()
                                    .with_frame_seconds(frame_seconds)
                                    .with_cancel_timeout_seconds(timeout_seconds)
                                    .with_trace_sink(sink);
  sim::Simulator simulator(city, fleet, oracle, config.simulation());
  return simulator.run(dispatcher);
}

void print_report_line(const sim::SimulationReport& report) {
  std::printf("  %-8s served=%5zu cancelled=%4zu delay=%6.2f min  passenger=%5.2f km  "
              "taxi=%6.2f km  driven=%8.1f km\n",
              report.dispatcher_name.c_str(), report.served, report.cancelled,
              report.delay_stats.mean(), report.passenger_stats.mean(),
              report.taxi_stats.mean(), report.total_taxi_distance_km);
}

/// --flag=value style option; returns true and fills `value` on match.
bool parse_option(const char* arg, const char* name, std::string& value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int taxis = 200;
  double rate_scale = 1.0;
  std::uint64_t seed = 1234;
  std::string trace_json_path;
  std::string trace_csv_path;
  std::string backend_text;
  bool trace_summary = false;
  bool sharing = false;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (parse_option(arg, "--trace-json", trace_json_path)) continue;
    if (parse_option(arg, "--trace-csv", trace_csv_path)) continue;
    if (parse_option(arg, "--backend", backend_text)) continue;
    if (std::strcmp(arg, "--trace-summary") == 0) {
      trace_summary = true;
      continue;
    }
    if (std::strcmp(arg, "--sharing") == 0) {
      sharing = true;
      continue;
    }
    switch (positional++) {
      case 0: taxis = std::atoi(arg); break;
      case 1: rate_scale = std::atof(arg); break;
      case 2: seed = std::strtoull(arg, nullptr, 10); break;
      default:
        std::fprintf(stderr, "unknown argument: %s\n", arg);
        return 2;
    }
  }
  const bool tracing = trace_summary || !trace_json_path.empty() || !trace_csv_path.empty();

  geo::DistanceBackendSpec backend_spec;
  if (!backend_text.empty() &&
      !geo::parse_distance_backend(backend_text, &backend_spec)) {
    std::fprintf(stderr, "unrecognized --backend spec: %s\n", backend_text.c_str());
    return 2;
  }
  geo::DistanceBackend backend;
  try {
    backend = geo::make_distance_oracle(backend_spec);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cannot resolve --backend: %s\n", error.what());
    return 2;
  }

  trace::CityModel model = trace::CityModel::boston();
  trace::GenerationOptions gen;
  gen.duration_seconds = 24.0 * 3600.0;
  gen.rate_scale = rate_scale;
  gen.seed = seed;
  const trace::Trace city = trace::generate(model, gen);

  trace::FleetOptions fleet_options;
  fleet_options.taxi_count = taxis;
  const auto fleet = trace::make_fleet(model.region, fleet_options);

  std::printf("city_day: %zu requests over 24 h, %d taxis (rate x%.2f, seed %llu)\n",
              city.size(), taxis, rate_scale,
              static_cast<unsigned long long>(seed));
  std::printf("distance backend: %s",
              std::string(geo::distance_backend_name(backend.spec.kind)).c_str());
  if (backend.graph_fingerprint != 0) {
    std::printf(" (graph %016llx, %zu nodes)",
                static_cast<unsigned long long>(backend.graph_fingerprint),
                backend.network->node_count());
  }
  std::printf("\n\n");

  const DispatchConfig config = tuned_config();
  const auto stable = sharing ? make_std_p(config) : make_nstd_p(config);
  baselines::NonSharingBaseline greedy(baselines::NonSharingPolicy::kGreedy);
  baselines::NonSharingBaseline min_cost(baselines::NonSharingPolicy::kMinCost);

  // Inert unless handed to the simulator below: collection only happens
  // between begin_frame/end_frame while the sink is activated.
  obs::TraceSink sink(obs::TraceOptions{.enabled = true});
  obs::TraceSink* headline_sink = tracing ? &sink : nullptr;

  std::printf("one-minute frames, 30-minute passenger patience:\n");
  const auto stable_report = run_once(city, fleet, *backend.oracle, *stable, 60.0, 1800.0, headline_sink);
  const auto greedy_report = run_once(city, fleet, *backend.oracle, greedy, 60.0, 1800.0);
  const auto mincost_report = run_once(city, fleet, *backend.oracle, min_cost, 60.0, 1800.0);
  print_report_line(stable_report);
  print_report_line(greedy_report);
  print_report_line(mincost_report);

  if (headline_sink != nullptr) {
    if (!trace_json_path.empty()) {
      std::ofstream out(trace_json_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", trace_json_path.c_str());
        return 1;
      }
      // Wrapped form: the full DispatchConfig::describe() snapshot rides
      // along so archived traces carry their provenance, including the
      // distance backend and its graph fingerprint.
      const DispatchConfig headline = tuned_config()
                                          .with_frame_seconds(60.0)
                                          .with_cancel_timeout_seconds(1800.0)
                                          .with_distance_backend(backend);
      sim::write_frame_traces_json(out, headline_sink->frames(), headline.describe());
      std::printf("\nwrote %zu frame traces to %s\n", headline_sink->frames().size(),
                  trace_json_path.c_str());
    }
    if (!trace_csv_path.empty()) {
      std::ofstream out(trace_csv_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", trace_csv_path.c_str());
        return 1;
      }
      sim::write_frame_traces_csv(out, headline_sink->frames());
      std::printf("\nwrote %zu frame traces to %s\n", headline_sink->frames().size(),
                  trace_csv_path.c_str());
    }
    if (trace_summary) {
      std::printf("\n");
      sim::write_trace_summary(std::cout, headline_sink->frames());
    }
  }

  std::printf("\nby clock time (3 h buckets) -- mean taxi dissatisfaction (km):\n  hour ");
  for (std::size_t b = 0; b < stable_report.hourly_taxi.bucket_count(); ++b) {
    std::printf("%8d", stable_report.hourly_taxi.bucket_start_hour(b));
  }
  for (const auto* report : {&stable_report, &greedy_report, &mincost_report}) {
    std::printf("\n  %-8s", report->dispatcher_name.c_str());
    for (std::size_t b = 0; b < report->hourly_taxi.bucket_count(); ++b) {
      const auto& stats = report->hourly_taxi.bucket(b);
      std::printf("%8.2f", stats.count() == 0 ? 0.0 : stats.mean());
    }
  }

  std::printf("\n\nablation -- batching interval (stable dispatch):\n");
  for (const double frame : {30.0, 60.0, 120.0, 300.0}) {
    const auto report = run_once(city, fleet, *backend.oracle, *stable, frame, 1800.0);
    std::printf("  frame=%5.0fs  served=%5zu  delay=%6.2f min  taxi=%6.2f km\n", frame,
                report.served, report.delay_stats.mean(), report.taxi_stats.mean());
  }

  std::printf("\nablation -- passenger patience (stable dispatch):\n");
  for (const double timeout : {600.0, 1800.0, 3600.0}) {
    const auto report = run_once(city, fleet, *backend.oracle, *stable, 60.0, timeout);
    std::printf("  patience=%5.0fs  served=%5zu  cancelled=%5zu  delay=%6.2f min\n",
                timeout, report.served, report.cancelled, report.delay_stats.mean());
  }
  return 0;
}
