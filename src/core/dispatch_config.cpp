#include "core/dispatch_config.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <utility>

#include "util/contracts.h"

namespace o2o {

std::string_view config_field_name(ConfigField field) noexcept {
  switch (field) {
    case ConfigField::kAlpha: return "alpha";
    case ConfigField::kBeta: return "beta";
    case ConfigField::kPassengerThresholdKm: return "passenger_threshold_km";
    case ConfigField::kTaxiThresholdScore: return "taxi_threshold_score";
    case ConfigField::kDetourThresholdKm: return "detour_threshold_km";
    case ConfigField::kMaxGroupSize: return "max_group_size";
    case ConfigField::kPickupRadiusKm: return "pickup_radius_km";
    case ConfigField::kTaxiSeats: return "taxi_seats";
    case ConfigField::kCandidateTaxisPerUnit: return "candidate_taxis_per_unit";
    case ConfigField::kExactMaxSets: return "exact_max_sets";
    case ConfigField::kTraceMaxFrames: return "trace_max_frames";
    case ConfigField::kFrameSeconds: return "frame_seconds";
    case ConfigField::kSpeedKmh: return "speed_kmh";
    case ConfigField::kCancelTimeoutSeconds: return "cancel_timeout_seconds";
    case ConfigField::kDrainSeconds: return "drain_seconds";
    case ConfigField::kIdleGridCellKm: return "idle_grid_cell_km";
    case ConfigField::kRoadNetwork: return "road_network";
    case ConfigField::kPipelineDepth: return "pipeline_depth";
    case ConfigField::kIngestCapacity: return "ingest_capacity";
    case ConfigField::kDistanceBackend: return "distance_backend";
  }
  return "unknown";
}

DispatchConfig& DispatchConfig::with_alpha(double alpha) {
  params_.preference.alpha = alpha;
  sim_.alpha = alpha;  // the report metrics use the same coefficient
  return *this;
}

DispatchConfig& DispatchConfig::with_beta(double beta) {
  params_.preference.beta = beta;
  sim_.beta = beta;
  return *this;
}

DispatchConfig& DispatchConfig::with_passenger_threshold_km(double km) {
  params_.preference.passenger_threshold_km = km;
  return *this;
}

DispatchConfig& DispatchConfig::with_taxi_threshold_score(double score) {
  params_.preference.taxi_threshold_score = score;
  return *this;
}

DispatchConfig& DispatchConfig::with_list_cap(std::size_t cap) {
  params_.preference.list_cap = cap;
  return *this;
}

DispatchConfig& DispatchConfig::with_proposal_side(core::ProposalSide side) {
  params_.side = side;
  return *this;
}

DispatchConfig& DispatchConfig::with_detour_threshold_km(double theta) {
  params_.grouping.detour_threshold_km = theta;
  return *this;
}

DispatchConfig& DispatchConfig::with_max_group_size(int size) {
  params_.grouping.max_group_size = size;
  return *this;
}

DispatchConfig& DispatchConfig::with_pickup_radius_km(double km) {
  params_.grouping.pickup_radius_km = km;
  return *this;
}

DispatchConfig& DispatchConfig::with_require_saving(bool enabled) {
  params_.grouping.require_saving = enabled;
  return *this;
}

DispatchConfig& DispatchConfig::with_packing_solver(core::PackingSolver solver) {
  params_.packing = solver;
  return *this;
}

DispatchConfig& DispatchConfig::with_packing_objective(core::PackingObjective objective) {
  params_.objective = objective;
  return *this;
}

DispatchConfig& DispatchConfig::with_taxi_seats(int seats) {
  params_.taxi_seats = seats;
  return *this;
}

DispatchConfig& DispatchConfig::with_candidate_taxis_per_unit(std::size_t count) {
  params_.candidate_taxis_per_unit = count;
  return *this;
}

DispatchConfig& DispatchConfig::with_exact_max_sets(std::size_t count) {
  params_.exact_max_sets = count;
  return *this;
}

DispatchConfig& DispatchConfig::with_enroute_extension(bool enabled) {
  enroute_extension_ = enabled;
  return *this;
}

DispatchConfig& DispatchConfig::with_warm_start_da(bool enabled) {
  warm_start_da_ = enabled;
  return *this;
}

DispatchConfig& DispatchConfig::sharding(core::ShardOptions options) {
  params_.sharding = options;
  return *this;
}

DispatchConfig& DispatchConfig::with_parallel_dispatch(bool enabled) {
  params_.sharding.parallel = enabled;
  return *this;
}

DispatchConfig& DispatchConfig::simulation(sim::SimulatorConfig config) {
  sim_ = config;
  // α/β live on the preference side; the simulation section mirrors them.
  sim_.alpha = params_.preference.alpha;
  sim_.beta = params_.preference.beta;
  road_mode_ = config.road_network != nullptr;
  return *this;
}

DispatchConfig& DispatchConfig::with_frame_seconds(double seconds) {
  sim_.frame_seconds = seconds;
  return *this;
}

DispatchConfig& DispatchConfig::with_speed_kmh(double kmh) {
  sim_.speed_kmh = kmh;
  return *this;
}

DispatchConfig& DispatchConfig::with_cancel_timeout_seconds(double seconds) {
  sim_.cancel_timeout_seconds = seconds;
  return *this;
}

DispatchConfig& DispatchConfig::with_drain_seconds(double seconds) {
  sim_.drain_seconds = seconds;
  return *this;
}

DispatchConfig& DispatchConfig::with_idle_grid_cell_km(double km) {
  sim_.idle_grid_cell_km = km;
  return *this;
}

DispatchConfig& DispatchConfig::with_road_network(const geo::RoadNetwork* network) {
  sim_.road_network = network;
  road_mode_ = true;
  return *this;
}

DispatchConfig& DispatchConfig::with_trace_sink(obs::TraceSink* sink) {
  sim_.trace_sink = sink;
  return *this;
}

DispatchConfig& DispatchConfig::with_distance_backend(geo::DistanceBackendSpec spec) {
  backend_ = std::move(spec);
  // The spec alone carries no resolved provenance.
  backend_graph_fingerprint_ = 0;
  return *this;
}

DispatchConfig& DispatchConfig::with_distance_backend(const geo::DistanceBackend& backend) {
  backend_ = backend.spec;
  backend_graph_fingerprint_ = backend.graph_fingerprint;
  return *this;
}

DispatchConfig& DispatchConfig::with_tracing(obs::TraceOptions options) {
  trace_ = options;
  return *this;
}

DispatchConfig& DispatchConfig::with_tracing(bool enabled) {
  trace_.enabled = enabled;
  return *this;
}

DispatchConfig& DispatchConfig::service(ServiceOptions options) {
  service_ = options;
  return *this;
}

DispatchConfig& DispatchConfig::with_pipeline_depth(std::size_t depth) {
  service_.pipeline_depth = depth;
  return *this;
}

DispatchConfig& DispatchConfig::with_ingest_capacity(std::size_t events) {
  service_.ingest_capacity = events;
  return *this;
}

namespace {

bool valid_positive(double v) { return !std::isnan(v) && v > 0.0; }
bool valid_non_negative(double v) { return !std::isnan(v) && v >= 0.0; }

}  // namespace

std::vector<ConfigError> DispatchConfig::validate() const {
  std::vector<ConfigError> errors;
  const auto fail = [&errors](ConfigField field, std::string message) {
    errors.push_back(ConfigError{field, std::move(message)});
  };

  const core::PreferenceParams& pref = params_.preference;
  if (!std::isfinite(pref.alpha) || pref.alpha < 0.0) {
    fail(ConfigField::kAlpha, "alpha must be finite and >= 0");
  }
  if (!std::isfinite(pref.beta) || pref.beta < 0.0) {
    fail(ConfigField::kBeta, "beta must be finite and >= 0");
  }
  // +inf is the documented "no threshold" value for both dummies.
  if (!valid_positive(pref.passenger_threshold_km)) {
    fail(ConfigField::kPassengerThresholdKm,
         "passenger_threshold_km must be > 0 (+inf disables the dummy cut-off)");
  }
  if (std::isnan(pref.taxi_threshold_score)) {
    fail(ConfigField::kTaxiThresholdScore, "taxi_threshold_score must not be NaN");
  }

  const packing::GroupOptions& grouping = params_.grouping;
  if (!valid_non_negative(grouping.detour_threshold_km)) {
    fail(ConfigField::kDetourThresholdKm, "detour_threshold_km must be >= 0");
  }
  // The enumeration engine pools pairs and triples only (the paper's
  // practical |c_k| <= 3).
  if (grouping.max_group_size < 2 || grouping.max_group_size > 3) {
    fail(ConfigField::kMaxGroupSize, "max_group_size must be 2 or 3");
  }
  if (!valid_positive(grouping.pickup_radius_km)) {
    fail(ConfigField::kPickupRadiusKm,
         "pickup_radius_km must be > 0 (+inf disables the pre-filter)");
  }

  if (params_.taxi_seats < 1) {
    fail(ConfigField::kTaxiSeats, "taxi_seats must be >= 1");
  }
  if (params_.taxi_seats < grouping.max_group_size && grouping.max_group_size >= 1) {
    fail(ConfigField::kTaxiSeats,
         "taxi_seats must be >= max_group_size (a group must fit one taxi)");
  }
  // Orders carry at most taxi_seats seats each (the service rejects more),
  // so a group's seat sum is at most max_group_size * taxi_seats; keep it
  // inside int.
  if (grouping.max_group_size >= 1 &&
      params_.taxi_seats > std::numeric_limits<int>::max() / grouping.max_group_size) {
    fail(ConfigField::kTaxiSeats,
         "taxi_seats must be <= INT_MAX / max_group_size (a group's seat sum "
         "must fit in int)");
  }
  // 0 is the documented "uncapped" sentinel; a cap beyond any plausible
  // fleet is almost certainly a negative int cast to size_t (the old
  // doc's "-1 = all" folklore), which would silently behave as uncapped.
  if (params_.candidate_taxis_per_unit >
      static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    fail(ConfigField::kCandidateTaxisPerUnit,
         "candidate_taxis_per_unit must be <= 2^32-1; use the sentinel 0 for "
         "uncapped (a huge value is usually a negative int cast to size_t)");
  }
  if (params_.packing == core::PackingSolver::kExact && params_.exact_max_sets == 0) {
    fail(ConfigField::kExactMaxSets,
         "exact_max_sets must be >= 1 when the exact packing solver is selected");
  }
  if (trace_.enabled && trace_.per_frame && trace_.max_frames == 0) {
    fail(ConfigField::kTraceMaxFrames,
         "trace max_frames must be >= 1 when per-frame retention is on");
  }

  if (!std::isfinite(sim_.frame_seconds) || sim_.frame_seconds <= 0.0) {
    fail(ConfigField::kFrameSeconds, "frame_seconds must be finite and > 0");
  }
  if (!std::isfinite(sim_.speed_kmh) || sim_.speed_kmh <= 0.0) {
    fail(ConfigField::kSpeedKmh, "speed_kmh must be finite and > 0");
  }
  // +inf means "requests never give up".
  if (!valid_positive(sim_.cancel_timeout_seconds)) {
    fail(ConfigField::kCancelTimeoutSeconds,
         "cancel_timeout_seconds must be > 0 (+inf disables cancellation)");
  }
  if (!std::isfinite(sim_.drain_seconds) || sim_.drain_seconds < 0.0) {
    fail(ConfigField::kDrainSeconds, "drain_seconds must be finite and >= 0");
  }
  if (!std::isfinite(sim_.idle_grid_cell_km) || sim_.idle_grid_cell_km <= 0.0) {
    fail(ConfigField::kIdleGridCellKm, "idle_grid_cell_km must be finite and > 0");
  }
  if (road_mode_ && sim_.road_network == nullptr) {
    fail(ConfigField::kRoadNetwork,
         "road mode requires a non-null road network (with_road_network(nullptr) "
         "is invalid; replace the whole section via simulation() to leave road mode)");
  }
  if (service_.pipeline_depth < 1 || service_.pipeline_depth > 1024) {
    fail(ConfigField::kPipelineDepth, "pipeline_depth must be in [1, 1024]");
  }
  if (service_.ingest_capacity < 1 || service_.ingest_capacity > (std::size_t{1} << 20)) {
    fail(ConfigField::kIngestCapacity, "ingest_capacity must be in [1, 2^20]");
  }

  if (backend_.kind == geo::DistanceBackendKind::kCircuity &&
      (!std::isfinite(backend_.circuity_factor) || backend_.circuity_factor < 1.0)) {
    fail(ConfigField::kDistanceBackend,
         "distance backend circuity_factor must be finite and >= 1");
  }
  if (backend_.kind == geo::DistanceBackendKind::kDijkstra) {
    const bool dimacs_pair = !backend_.dimacs_gr.empty() && !backend_.dimacs_co.empty();
    const bool dimacs_any = !backend_.dimacs_gr.empty() || !backend_.dimacs_co.empty();
    const int sources = (backend_.network != nullptr ? 1 : 0) + (dimacs_any ? 1 : 0) +
                        (!backend_.osm_xml.empty() ? 1 : 0);
    if (sources != 1 || (dimacs_any && !dimacs_pair)) {
      fail(ConfigField::kDistanceBackend,
           "the dijkstra distance backend needs exactly one graph source: a "
           "programmatic network, a DIMACS .gr/.co pair (both paths), or an OSM "
           "XML extract");
    }
  }
  return errors;
}

namespace {

std::string describe_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string describe_bool(bool value) { return value ? "true" : "false"; }

/// 64-bit provenance hashes print as fixed-width hex; 0 = not resolved.
std::string describe_hash(std::uint64_t value) {
  if (value == 0) return "none";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string_view describe_side(core::ProposalSide side) {
  return side == core::ProposalSide::kPassengers ? "passengers" : "taxis";
}

std::string_view describe_solver(core::PackingSolver solver) {
  switch (solver) {
    case core::PackingSolver::kLocalSearch: return "local_search";
    case core::PackingSolver::kGreedy: return "greedy";
    case core::PackingSolver::kExact: return "exact";
  }
  return "unknown";
}

std::string_view describe_objective(core::PackingObjective objective) {
  switch (objective) {
    case core::PackingObjective::kCount: return "count";
    case core::PackingObjective::kRiders: return "riders";
    case core::PackingObjective::kSavings: return "savings";
  }
  return "unknown";
}

}  // namespace

std::vector<std::pair<std::string, std::string>> DispatchConfig::describe() const {
  std::vector<std::pair<std::string, std::string>> kv;
  kv.reserve(48);
  const auto put = [&kv](std::string_view key, std::string value) {
    kv.emplace_back(std::string(key), std::move(value));
  };

  // Preference / shared coefficients.
  const core::PreferenceParams& pref = params_.preference;
  put("alpha", describe_double(pref.alpha));
  put("beta", describe_double(pref.beta));
  put("passenger_threshold_km", describe_double(pref.passenger_threshold_km));
  put("taxi_threshold_score", describe_double(pref.taxi_threshold_score));
  put("list_cap", std::to_string(pref.list_cap));

  // Matching side.
  put("proposal_side", std::string(describe_side(params_.side)));

  // Sharing / grouping.
  const packing::GroupOptions& grouping = params_.grouping;
  put("detour_threshold_km", describe_double(grouping.detour_threshold_km));
  put("max_group_size", std::to_string(grouping.max_group_size));
  put("pickup_radius_km", describe_double(grouping.pickup_radius_km));
  put("require_saving", describe_bool(grouping.require_saving));
  put("packing_solver", std::string(describe_solver(params_.packing)));
  put("packing_objective", std::string(describe_objective(params_.objective)));
  put("taxi_seats", std::to_string(params_.taxi_seats));
  put("candidate_taxis_per_unit", std::to_string(params_.candidate_taxis_per_unit));
  put("exact_max_sets", std::to_string(params_.exact_max_sets));
  put("enroute_extension", describe_bool(enroute_extension_));
  put("warm_start_da", describe_bool(warm_start_da_));

  // Sharded matching engine.
  put("parallel_dispatch", describe_bool(params_.sharding.parallel));

  // Simulation.
  put("frame_seconds", describe_double(sim_.frame_seconds));
  put("speed_kmh", describe_double(sim_.speed_kmh));
  put("cancel_timeout_seconds", describe_double(sim_.cancel_timeout_seconds));
  put("drain_seconds", describe_double(sim_.drain_seconds));
  put("idle_grid_cell_km", describe_double(sim_.idle_grid_cell_km));
  put("road_network", sim_.road_network != nullptr ? "set" : "none");

  // Distance backend. The fingerprint is only non-"none" after recording
  // a *resolved* backend (the geo::DistanceBackend overload), which is
  // what pins a deployment to its exact graph.
  put("distance_backend", std::string(geo::distance_backend_name(backend_.kind)));
  put("distance_circuity_factor", describe_double(backend_.circuity_factor));
  put("distance_graph_fingerprint", describe_hash(backend_graph_fingerprint_));

  // Observability.
  put("trace_enabled", describe_bool(trace_.enabled));
  put("trace_per_frame", describe_bool(trace_.per_frame));
  put("trace_max_frames", std::to_string(trace_.max_frames));

  // Streaming service.
  put("pipeline_depth", std::to_string(service_.pipeline_depth));
  put("ingest_capacity", std::to_string(service_.ingest_capacity));
  return kv;
}

core::StableDispatcherOptions DispatchConfig::stable_options() const {
  core::StableDispatcherOptions options;
  options.preference = params_.preference;
  options.side = params_.side;
  options.sharding = params_.sharding;
  options.warm_start_da = warm_start_da_;
  return options;
}

core::SharingStableDispatcherOptions DispatchConfig::sharing_options() const {
  core::SharingStableDispatcherOptions options;
  options.params = params_;
  options.enroute_extension = enroute_extension_;
  options.warm_start_da = warm_start_da_;
  return options;
}

namespace {

DispatchConfig pin_side(DispatchConfig config, core::ProposalSide side) {
  O2O_EXPECTS(config.validate().empty());
  return config.with_proposal_side(side);
}

}  // namespace

std::unique_ptr<sim::Dispatcher> make_nstd_p(const DispatchConfig& config) {
  return std::make_unique<core::StableDispatcher>(
      pin_side(config, core::ProposalSide::kPassengers).stable_options(),
      core::FromConfig{});
}

std::unique_ptr<sim::Dispatcher> make_nstd_t(const DispatchConfig& config) {
  return std::make_unique<core::StableDispatcher>(
      pin_side(config, core::ProposalSide::kTaxis).stable_options(), core::FromConfig{});
}

std::unique_ptr<sim::Dispatcher> make_std_p(const DispatchConfig& config) {
  return std::make_unique<core::SharingStableDispatcher>(
      pin_side(config, core::ProposalSide::kPassengers).sharing_options(),
      core::FromConfig{});
}

std::unique_ptr<sim::Dispatcher> make_std_t(const DispatchConfig& config) {
  return std::make_unique<core::SharingStableDispatcher>(
      pin_side(config, core::ProposalSide::kTaxis).sharing_options(), core::FromConfig{});
}

std::unique_ptr<sim::Dispatcher> make_dispatcher(std::string_view kind,
                                                 const DispatchConfig& config) {
  std::string normalized;
  normalized.reserve(kind.size());
  for (char c : kind) {
    normalized.push_back(c == '_' ? '-' : static_cast<char>(std::tolower(
                                              static_cast<unsigned char>(c))));
  }
  if (normalized == "nstd-p") return make_nstd_p(config);
  if (normalized == "nstd-t") return make_nstd_t(config);
  if (normalized == "std-p") return make_std_p(config);
  if (normalized == "std-t") return make_std_t(config);
  return nullptr;
}

}  // namespace o2o
