// Unified dispatch configuration (the single front door to the paper's
// four dispatchers).
//
// Historically every entry point took its own options struct --
// PreferenceParams, StableDispatcherOptions, SharingParams +
// GroupOptions, SharingStableDispatcherOptions -- with the shared knobs
// (α, β, thresholds) duplicated at each layer. DispatchConfig composes
// all of them behind one fluent builder, keeps the shared knobs in one
// place, validates the whole bundle up front, and projects back onto the
// legacy structs so existing call sites keep compiling unchanged.
//
//   o2o::DispatchConfig config;
//   config.with_alpha(1.0)
//       .with_passenger_threshold_km(3.0)
//       .with_detour_threshold_km(5.0)
//       .with_frame_seconds(60.0);
//   auto dispatcher = o2o::make_std_p(config);
//   sim::Simulator sim(trace, fleet, oracle, config.simulation());
//
// The config is end-to-end: besides the dispatcher knobs it carries a
// .simulation() section (the sim::SimulatorConfig the Simulator consumes)
// and a .sharding() section (the component-sharded matching engine,
// core/shard_engine.h). Constructing dispatchers straight from the legacy
// option structs is deprecated — the factories below are the supported
// path and validate the whole bundle first.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dispatchers.h"
#include "geo/backend.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace o2o {

/// Knobs of the streaming dispatch service (src/service). Carried here so
/// one DispatchConfig describes a deployment end to end; the service layer
/// reads them, core only validates them.
struct ServiceOptions {
  /// How many complete frames may wait for the matcher. 1 = classic
  /// double-buffering (frame t+1 fills while frame t matches); higher
  /// values absorb burstier producers.
  std::size_t pipeline_depth = 1;
  /// The most orders plus drivers one frame may carry. Later events of
  /// that frame are dropped on arrival and the frame is rejected, so a
  /// stream that never sends a barrier holds bounded memory.
  std::size_t ingest_capacity = std::size_t{1} << 16;

  friend bool operator==(const ServiceOptions&, const ServiceOptions&) = default;
};

/// Which knob a validation error refers to (stable identifiers for
/// machine-readable error reporting).
enum class ConfigField : std::uint8_t {
  kAlpha,
  kBeta,
  kPassengerThresholdKm,
  kTaxiThresholdScore,
  kDetourThresholdKm,
  kMaxGroupSize,
  kPickupRadiusKm,
  kTaxiSeats,
  kCandidateTaxisPerUnit,
  kExactMaxSets,
  kTraceMaxFrames,
  kFrameSeconds,
  kSpeedKmh,
  kCancelTimeoutSeconds,
  kDrainSeconds,
  kIdleGridCellKm,
  kRoadNetwork,
  kPipelineDepth,
  kIngestCapacity,
  kDistanceBackend,
};

/// Stable snake_case name of a field (mirrors the builder setters).
std::string_view config_field_name(ConfigField field) noexcept;

/// One typed validation failure; `message` says what is wrong and what
/// the valid range is.
struct ConfigError {
  ConfigField field;
  std::string message;

  friend bool operator==(const ConfigError&, const ConfigError&) = default;
};

/// The composed configuration. Default-constructed it reproduces every
/// legacy default, so `DispatchConfig{}` behaves exactly like the old
/// default-constructed option structs.
class DispatchConfig {
 public:
  // --- shared model coefficients (Section IV-A) ------------------------
  DispatchConfig& with_alpha(double alpha);
  DispatchConfig& with_beta(double beta);
  DispatchConfig& with_passenger_threshold_km(double km);
  DispatchConfig& with_taxi_threshold_score(double score);
  DispatchConfig& with_list_cap(std::size_t cap);

  // --- matching side (Section IV) -------------------------------------
  DispatchConfig& with_proposal_side(core::ProposalSide side);

  // --- sharing / grouping (Section V) ----------------------------------
  DispatchConfig& with_detour_threshold_km(double theta);
  DispatchConfig& with_max_group_size(int size);
  DispatchConfig& with_pickup_radius_km(double km);
  DispatchConfig& with_require_saving(bool enabled);
  DispatchConfig& with_packing_solver(core::PackingSolver solver);
  DispatchConfig& with_packing_objective(core::PackingObjective objective);
  DispatchConfig& with_taxi_seats(int seats);
  DispatchConfig& with_candidate_taxis_per_unit(std::size_t count);
  DispatchConfig& with_exact_max_sets(std::size_t count);
  DispatchConfig& with_enroute_extension(bool enabled);
  /// Warm-start deferred acceptance from the previous frame's matching
  /// (both stable dispatcher families; default on; output bit-identical
  /// — see DESIGN.md "Incremental frame engine").
  DispatchConfig& with_warm_start_da(bool enabled);

  // --- sharded matching engine (core/shard_engine.h) --------------------
  /// Replaces the whole sharding section.
  DispatchConfig& sharding(core::ShardOptions options);
  /// Component-sharded parallel matching on/off (off = serial pass).
  DispatchConfig& with_parallel_dispatch(bool enabled);

  // --- simulation (sim::Simulator) --------------------------------------
  /// Replaces the whole simulation section. The α/β fields of the report
  /// metrics are kept in sync with the shared model coefficients above
  /// (with_alpha / with_beta are the single source of truth), so the
  /// incoming config's own alpha/beta are overwritten.
  DispatchConfig& simulation(sim::SimulatorConfig config);
  DispatchConfig& with_frame_seconds(double seconds);
  DispatchConfig& with_speed_kmh(double kmh);
  DispatchConfig& with_cancel_timeout_seconds(double seconds);
  DispatchConfig& with_drain_seconds(double seconds);
  DispatchConfig& with_idle_grid_cell_km(double km);
  /// Drive taxis along this network's shortest paths. Passing a network
  /// opts into road mode; validate() then rejects a null network (reset
  /// by replacing the whole section via simulation()).
  DispatchConfig& with_road_network(const geo::RoadNetwork* network);
  DispatchConfig& with_trace_sink(obs::TraceSink* sink);

  // --- distance backend (geo/backend.h) ---------------------------------
  /// Declares the distance function of the run. The config only carries
  /// the spec (validate() checks it; describe() names it); resolve it
  /// with geo::make_distance_oracle and hand the oracle to the simulator
  /// / service as before.
  DispatchConfig& with_distance_backend(geo::DistanceBackendSpec spec);
  /// Overload recording a *resolved* backend: same spec, plus the graph
  /// fingerprint, so describe() (and therefore `o2o_serve --print-config`
  /// and the FrameTrace export) pins the run to the exact graph it used.
  DispatchConfig& with_distance_backend(const geo::DistanceBackend& backend);

  // --- observability ---------------------------------------------------
  DispatchConfig& with_tracing(obs::TraceOptions options);
  /// Shorthand: enable tracing with default retention.
  DispatchConfig& with_tracing(bool enabled = true);

  // --- streaming service (src/service) ----------------------------------
  /// Replaces the whole service section.
  DispatchConfig& service(ServiceOptions options);
  DispatchConfig& with_pipeline_depth(std::size_t depth);
  DispatchConfig& with_ingest_capacity(std::size_t events);

  // --- component access ------------------------------------------------
  const core::PreferenceParams& preference() const noexcept { return params_.preference; }
  const packing::GroupOptions& grouping() const noexcept { return params_.grouping; }
  const core::SharingParams& sharing_params() const noexcept { return params_; }
  const obs::TraceOptions& trace() const noexcept { return trace_; }
  const core::ShardOptions& sharding() const noexcept { return params_.sharding; }
  const sim::SimulatorConfig& simulation() const noexcept { return sim_; }
  const ServiceOptions& service() const noexcept { return service_; }
  core::ProposalSide proposal_side() const noexcept { return params_.side; }
  bool enroute_extension() const noexcept { return enroute_extension_; }
  const geo::DistanceBackendSpec& distance_backend() const noexcept { return backend_; }
  /// 0 until a resolved backend was recorded (or for metric backends).
  std::uint64_t distance_graph_fingerprint() const noexcept {
    return backend_graph_fingerprint_;
  }

  /// Checks the whole bundle; empty result means valid. Never throws --
  /// CLIs print the errors, tests assert on the fields.
  std::vector<ConfigError> validate() const;

  /// Stable key/value snapshot of every knob, in a fixed order, with the
  /// snake_case keys of the builder setters. Doubles are formatted with
  /// %.17g (round-trip exact), bools as "true"/"false", enums by their
  /// CLI names. Emitted into FrameTrace JSON exports and printed by
  /// `o2o_serve --print-config`, so deployments are auditable.
  std::vector<std::pair<std::string, std::string>> describe() const;

  // --- projections onto the legacy structs -----------------------------
  core::StableDispatcherOptions stable_options() const;
  core::SharingStableDispatcherOptions sharing_options() const;

 private:
  core::SharingParams params_;  ///< superset: preference + grouping + packing + sharding
  bool enroute_extension_ = false;
  bool warm_start_da_ = true;
  obs::TraceOptions trace_;
  sim::SimulatorConfig sim_;  ///< alpha/beta mirror the preference knobs
  ServiceOptions service_;
  bool road_mode_ = false;    ///< with_road_network was called (null ⇒ error)
  geo::DistanceBackendSpec backend_;
  std::uint64_t backend_graph_fingerprint_ = 0;  ///< set by the resolved overload
};

// Factories for the paper's four dispatchers. Each pins the proposal
// side itself (overriding with_proposal_side), so the name always means
// what it says. O2O_EXPECTS(validate().empty()).
std::unique_ptr<sim::Dispatcher> make_nstd_p(const DispatchConfig& config = {});
std::unique_ptr<sim::Dispatcher> make_nstd_t(const DispatchConfig& config = {});
std::unique_ptr<sim::Dispatcher> make_std_p(const DispatchConfig& config = {});
std::unique_ptr<sim::Dispatcher> make_std_t(const DispatchConfig& config = {});

/// Name-based factory for CLIs: "nstd-p", "nstd-t", "std-p", "std-t"
/// (case-insensitive; '_' accepted for '-'). Returns nullptr on an
/// unknown name.
std::unique_ptr<sim::Dispatcher> make_dispatcher(std::string_view kind,
                                                 const DispatchConfig& config = {});

}  // namespace o2o
