#include "layers.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/dispatchers.h"
#include "core/preferences.h"
#include "core/shard_engine.h"
#include "core/sharing.h"
#include "core/stable_matching.h"
#include "counting_oracle.h"
#include "index/spatial_grid.h"
#include "obs/obs.h"
#include "packing/group_enum.h"
#include "packing/groups.h"
#include "packing/set_packing.h"
#include "routing/route.h"
#include "service/codec.h"
#include "service/replay.h"
#include "service/service.h"
#include "service/session.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace o2o;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// CPU time of the whole process (every ThreadPool worker included).
double cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

double stage_ms(const obs::FrameTrace& frame, obs::Stage stage) {
  return static_cast<double>(frame.stage_ns[static_cast<std::size_t>(stage)]) * 1e-6;
}

double count(const obs::FrameTrace& frame, obs::Counter counter) {
  return static_cast<double>(frame.counters[static_cast<std::size_t>(counter)]);
}

double gauge(const obs::FrameTrace& frame, obs::Gauge g) {
  return static_cast<double>(frame.gauges[static_cast<std::size_t>(g)]);
}

/// The frame as DispatchSession::dispatch sees it: orders sorted by
/// (timestamp, order_id), drivers by driver_id, idle drivers as taxis.
struct CanonicalFrame {
  std::vector<trace::Request> pending;
  std::vector<trace::Taxi> idle;
};

CanonicalFrame canonicalize(const api::FrameRequest& request) {
  CanonicalFrame frame;
  frame.pending.reserve(request.orders.size());
  for (const api::Order& order : request.orders) {
    frame.pending.push_back(
        trace::Request{order.order_id, order.timestamp, order.start, order.finish, order.seats});
  }
  std::sort(frame.pending.begin(), frame.pending.end(),
            [](const trace::Request& a, const trace::Request& b) {
              return a.time_seconds != b.time_seconds ? a.time_seconds < b.time_seconds
                                                      : a.id < b.id;
            });
  std::vector<const api::Driver*> drivers;
  for (const api::Driver& driver : request.drivers) drivers.push_back(&driver);
  std::sort(drivers.begin(), drivers.end(), [](const api::Driver* a, const api::Driver* b) {
    return a->driver_id < b->driver_id;
  });
  for (const api::Driver* driver : drivers) {
    if (driver->idle()) frame.idle.push_back({driver->driver_id, driver->location, driver->seats});
  }
  return frame;
}

/// sim assignment -> wire assignment, pick-up ETA as the session computes it.
api::Assignment to_api(const sim::DispatchAssignment& assignment,
                       const geo::DistanceOracle& oracle, double speed_km_per_second) {
  api::Assignment converted;
  converted.driver_id = assignment.taxi;
  converted.order_ids = assignment.requests;
  converted.start = *assignment.route.start;
  for (const routing::Stop& stop : assignment.route.stops) {
    converted.route.push_back(api::DriverStop{stop.request, stop.is_pickup, stop.point});
  }
  if (!assignment.route.stops.empty()) {
    converted.pick_up_eta =
        oracle.distance(converted.start, assignment.route.stops.front().point) /
        speed_km_per_second;
  }
  return converted;
}

/// Replays every frame through the layers under the service, on oracle
/// instances of its own (so its cache traffic never warms the served
/// session's), and checks the result against the served response.
class LayerReplay {
 public:
  LayerReplay(const WorkloadSpec& spec, const City& city)
      : sharing_(spec.kind != "nstd-p"),
        config_(DispatchConfig(city.config).with_proposal_side(core::ProposalSide::kPassengers)),
        session_backend_(geo::make_distance_oracle(city.backend.spec)),
        replay_backend_(geo::make_distance_oracle(city.backend.spec)),
        packing_backend_(geo::make_distance_oracle(city.backend.spec)),
        session_oracle_(*session_backend_.oracle),
        replay_oracle_(*replay_backend_.oracle),
        packing_oracle_(*packing_backend_.oracle),
        session_(spec.kind, city.config, session_oracle_) {}

  /// Returns an empty string when the replay agrees with `served`.
  std::string replay(const api::FrameRequest& request, const api::FrameResponse& served,
                     obs::TraceSink& sink, std::map<std::string, double>& sums);

 private:
  template <class Body>
  obs::FrameTrace sink_frame(obs::TraceSink& sink, Body&& body) {
    sink.begin_frame(sink_frames_++, 0.0);
    body();
    return sink.end_frame();
  }

  /// Re-keys the remembered matching like the dispatchers' warm start.
  std::vector<int> warm_seed(const CanonicalFrame& frame) const;
  void remember(const std::vector<api::Assignment>& assignments);

  double replay_nonsharing(const CanonicalFrame& frame, const index::SpatialGrid* grid,
                           const api::FrameResponse& served, obs::TraceSink& sink,
                           std::map<std::string, double>& sums,
                           std::vector<api::Assignment>& out, std::string& error);
  double replay_sharing(const CanonicalFrame& frame, const index::SpatialGrid* grid,
                        obs::TraceSink& sink, std::map<std::string, double>& sums,
                        std::vector<api::Assignment>& out, std::string& error);

  bool sharing_;
  DispatchConfig config_;
  geo::DistanceBackend session_backend_;
  geo::DistanceBackend replay_backend_;
  geo::DistanceBackend packing_backend_;
  CountingOracle session_oracle_;
  CountingOracle replay_oracle_;
  CountingOracle packing_oracle_;
  service::DispatchSession session_;
  packing::GroupCache enum_cache_;     ///< enumerate_share_groups' own cache
  packing::GroupCache sharing_cache_;  ///< the cache dispatch_sharing carries
  std::unordered_map<trace::RequestId, trace::TaxiId> last_match_;
  std::unordered_set<api::OrderId> previous_orders_;
  bool have_previous_ = false;
  std::uint64_t sink_frames_ = 0;
};

std::vector<int> LayerReplay::warm_seed(const CanonicalFrame& frame) const {
  if (last_match_.empty()) return {};
  std::unordered_map<trace::TaxiId, int> taxi_index;
  for (std::size_t t = 0; t < frame.idle.size(); ++t) {
    taxi_index.emplace(frame.idle[t].id, static_cast<int>(t));
  }
  std::vector<int> warm(frame.pending.size(), core::kDummy);
  bool any = false;
  for (std::size_t r = 0; r < frame.pending.size(); ++r) {
    const auto remembered = last_match_.find(frame.pending[r].id);
    if (remembered == last_match_.end()) continue;
    const auto index = taxi_index.find(remembered->second);
    if (index == taxi_index.end()) continue;
    warm[r] = index->second;
    any = true;
  }
  if (!any) return {};
  return warm;
}

void LayerReplay::remember(const std::vector<api::Assignment>& assignments) {
  last_match_.clear();
  for (const api::Assignment& assignment : assignments) {
    for (api::OrderId id : assignment.order_ids) last_match_.emplace(id, assignment.driver_id);
  }
}

std::string LayerReplay::replay(const api::FrameRequest& request,
                                const api::FrameResponse& served, obs::TraceSink& sink,
                                std::map<std::string, double>& sums) {
  std::string error;
  const CanonicalFrame frame = canonicalize(request);

  // Workload description: sizes and order churn against the last frame.
  sums["input.orders"] += static_cast<double>(frame.pending.size());
  sums["input.drivers"] += static_cast<double>(request.drivers.size());
  std::unordered_set<api::OrderId> orders;
  std::size_t absent = 0;
  for (const trace::Request& r : frame.pending) {
    orders.insert(r.id);
    absent += previous_orders_.count(r.id) == 0 ? 1 : 0;
  }
  if (have_previous_) {
    sums["churn.absent"] += static_cast<double>(absent);
    sums["churn.orders"] += static_cast<double>(frame.pending.size());
  }
  previous_orders_ = std::move(orders);
  have_previous_ = true;

  // The session on its own counted oracle: wall, CPU and oracle traffic.
  std::optional<api::FrameResponse> session_response;
  double dispatch_ms = 0.0;
  double dispatch_cpu_ms = 0.0;
  const CountingOracle::Totals before = session_oracle_.totals();
  const obs::FrameTrace session_frame = sink_frame(sink, [&] {
    const double cpu0 = cpu_ms();
    const auto start = Clock::now();
    session_response = session_.dispatch(request);
    dispatch_ms = ms_since(start);
    dispatch_cpu_ms = cpu_ms() - cpu0;
  });
  const CountingOracle::Totals after = session_oracle_.totals();
  sums["service.session.dispatch_ms"] += dispatch_ms;
  sums["service.session.dispatch_cpu_ms"] += dispatch_cpu_ms;
  sums["geo.oracle.ms"] += static_cast<double>(after.ns - before.ns) * 1e-6;
  sums["geo.oracle.calls"] += static_cast<double>(after.calls - before.calls);
  sums["geo.oracle.row_cells"] += static_cast<double>(after.cells - before.cells);
  sums["geo.tree_hits"] += count(session_frame, obs::Counter::kOracleTreeHits);
  sums["geo.tree_misses"] += count(session_frame, obs::Counter::kOracleTreeMisses);
  sums["geo.snap_hits"] += count(session_frame, obs::Counter::kSnapHits);
  sums["geo.snap_misses"] += count(session_frame, obs::Counter::kSnapMisses);
  if (!session_response || *session_response != served) {
    error = "the session on the counting oracle diverged from the served response";
  }

  // The layers, called directly on the canonical frame.
  const auto grid_start = Clock::now();
  std::optional<index::SpatialGrid> grid;
  if (!frame.idle.empty()) {
    grid.emplace(std::span<const trace::Taxi>(frame.idle),
                 config_.simulation().idle_grid_cell_km);
  }
  const double grid_ms = ms_since(grid_start);
  sums["index.grid_build_ms"] += grid_ms;

  std::vector<geo::Point> points;
  for (const trace::Taxi& taxi : frame.idle) points.push_back(taxi.location);
  replay_oracle_.prepare_frame(points);
  packing_oracle_.prepare_frame(points);

  std::vector<api::Assignment> assignments;
  const double layers_ms =
      sharing_ ? replay_sharing(frame, grid ? &*grid : nullptr, sink, sums, assignments, error)
               : replay_nonsharing(frame, grid ? &*grid : nullptr, served, sink, sums,
                                   assignments, error);
  sums["service.session.overhead_ms"] += dispatch_ms - grid_ms - layers_ms;
  if (error.empty() && assignments != served.assignments) {
    error = "the layer replay's assignments differ from the served response";
  }
  return error;
}

double LayerReplay::replay_nonsharing(const CanonicalFrame& frame,
                                      const index::SpatialGrid* grid,
                                      const api::FrameResponse& served, obs::TraceSink& sink,
                                      std::map<std::string, double>& sums,
                                      std::vector<api::Assignment>& out, std::string& error) {
  // StableDispatcher returns before touching its warm memory here.
  if (frame.idle.empty() || frame.pending.empty()) return 0.0;
  const core::StableDispatcherOptions options = config_.stable_options();

  std::optional<core::PreferenceProfile> profile;
  double build_ms = 0.0;
  double build_cpu_ms = 0.0;
  const obs::FrameTrace build_frame = sink_frame(sink, [&] {
    const double cpu0 = cpu_ms();
    const auto start = Clock::now();
    profile.emplace(core::build_nonsharing_profile(frame.idle, frame.pending, replay_oracle_,
                                                   options.preference, grid));
    build_ms = ms_since(start);
    build_cpu_ms = cpu_ms() - cpu0;
  });
  sums["core.preferences.build_ms"] += build_ms;
  sums["core.preferences.build_cpu_ms"] += build_cpu_ms;
  sums["core.preferences.pairs"] += count(build_frame, obs::Counter::kPreferencePairs);
  sums["core.preferences.dense_pairs"] +=
      static_cast<double>(frame.idle.size() * frame.pending.size());

  const std::vector<int> warm = options.warm_start_da ? warm_seed(frame) : std::vector<int>{};
  core::Matching matching;
  double da_ms = 0.0;
  const obs::FrameTrace da_frame = sink_frame(sink, [&] {
    const auto start = Clock::now();
    matching = core::sharded_gale_shapley(*profile, options.side, options.sharding, warm);
    da_ms = ms_since(start);
  });
  sums["core.stable_matching.da_ms"] += da_ms;
  sums["core.stable_matching.proposals"] += count(da_frame, obs::Counter::kProposals);
  sums["core.stable_matching.warm_seeds"] += count(da_frame, obs::Counter::kDaWarmSeeds);
  sums["core.stable_matching.components"] += count(da_frame, obs::Counter::kShardComponents);

  const auto assemble_start = Clock::now();
  const double speed = config_.simulation().speed_kmh / 3600.0;
  for (std::size_t r = 0; r < frame.pending.size(); ++r) {
    const int t = matching.request_to_taxi[r];
    if (t == core::kDummy) continue;
    const trace::Taxi& taxi = frame.idle[static_cast<std::size_t>(t)];
    sim::DispatchAssignment assignment;
    assignment.taxi = taxi.id;
    assignment.requests = {frame.pending[r].id};
    assignment.route = routing::single_rider_route(frame.pending[r], taxi.location);
    out.push_back(to_api(assignment, replay_oracle_, speed));
  }
  if (options.warm_start_da) remember(out);
  const double assemble_ms = ms_since(assemble_start);

  // Definition 1 on what was actually served, against the rebuilt profile.
  std::unordered_map<api::OrderId, int> request_index;
  std::unordered_map<api::DriverId, int> taxi_index;
  for (std::size_t r = 0; r < frame.pending.size(); ++r) {
    request_index.emplace(frame.pending[r].id, static_cast<int>(r));
  }
  for (std::size_t t = 0; t < frame.idle.size(); ++t) {
    taxi_index.emplace(frame.idle[t].id, static_cast<int>(t));
  }
  std::vector<int> served_match(frame.pending.size(), core::kDummy);
  for (const api::Assignment& assignment : served.assignments) {
    const auto t = taxi_index.find(assignment.driver_id);
    for (api::OrderId id : assignment.order_ids) {
      const auto r = request_index.find(id);
      if (t == taxi_index.end() || r == request_index.end()) {
        error = "a served assignment names an order or driver outside the frame";
        continue;
      }
      served_match[static_cast<std::size_t>(r->second)] = t->second;
    }
  }
  const core::Matching served_matching =
      core::make_matching(std::move(served_match), frame.idle.size());
  const std::size_t blocking = core::blocking_pairs(*profile, served_matching).size();
  sums["core.stable_matching.blocking_pairs"] += static_cast<double>(blocking);
  if (blocking != 0 && error.empty()) error = "the served matching has blocking pairs";
  return build_ms + da_ms + assemble_ms;
}

double LayerReplay::replay_sharing(const CanonicalFrame& frame, const index::SpatialGrid* grid,
                                   obs::TraceSink& sink, std::map<std::string, double>& sums,
                                   std::vector<api::Assignment>& out, std::string& error) {
  const core::SharingStableDispatcherOptions options = config_.sharing_options();
  const core::SharingParams& params = options.params;
  // SharingStableDispatcher returns before touching its warm memory here.
  if (frame.pending.empty() || frame.idle.empty()) return 0.0;

  // Stages 1-2 of Algorithm 3 on their own oracle and cache, timed apart.
  std::vector<packing::ShareGroup> groups;
  double enum_ms = 0.0;
  double enum_cpu_ms = 0.0;
  const packing::GroupCache::Stats cache_before = enum_cache_.stats();
  const obs::FrameTrace enum_frame = sink_frame(sink, [&] {
    const double cpu0 = cpu_ms();
    const auto start = Clock::now();
    groups = packing::enumerate_share_groups(frame.pending, packing_oracle_, params.grouping,
                                             params.taxi_seats, &enum_cache_);
    enum_ms = ms_since(start);
    enum_cpu_ms = cpu_ms() - cpu0;
  });
  const packing::GroupCache::Stats cache_after = enum_cache_.stats();
  sums["packing.groups.enum_ms"] += enum_ms;
  sums["packing.groups.enum_cpu_ms"] += enum_cpu_ms;
  sums["packing.groups.candidates"] += count(enum_frame, obs::Counter::kPairCandidates) +
                                       count(enum_frame, obs::Counter::kTripleCandidates);
  sums["packing.groups.feasible"] += static_cast<double>(groups.size());
  sums["packing.groups.cache_hits"] += static_cast<double>(cache_after.hits - cache_before.hits);
  sums["packing.groups.cache_stores"] +=
      static_cast<double>(cache_after.stores - cache_before.stores);

  // The set-packing instance exactly as pack_requests builds it.
  packing::SetPackingProblem problem;
  problem.universe_size = frame.pending.size();
  for (const packing::ShareGroup& group : groups) {
    std::vector<std::size_t> members = group.member_indices;
    std::sort(members.begin(), members.end());
    problem.sets.push_back(std::move(members));
    if (params.objective == core::PackingObjective::kRiders) {
      problem.weights.push_back(static_cast<double>(group.member_indices.size()));
    } else if (params.objective == core::PackingObjective::kSavings) {
      problem.weights.push_back(std::max(1e-6, group.direct_sum_km - group.pooled_length_km));
    }
  }
  packing::Packing packed;
  double solve_ms = 0.0;
  {
    const auto start = Clock::now();
    switch (params.packing) {
      case core::PackingSolver::kLocalSearch:
        packed = packing::solve_local_search(problem);
        break;
      case core::PackingSolver::kGreedy:
        packed = packing::solve_greedy(problem);
        break;
      case core::PackingSolver::kExact:
        packed = problem.sets.size() > params.exact_max_sets
                     ? packing::solve_local_search(problem)
                     : packing::solve_exact(problem, params.exact_max_sets);
        break;
    }
    solve_ms = ms_since(start);
  }
  sums["packing.set_packing.solve_ms"] += solve_ms;
  sums["packing.set_packing.packed"] += static_cast<double>(packed.size());
  std::size_t packed_members = 0;
  for (std::size_t s : packed) packed_members += problem.sets[s].size();
  const std::size_t units = frame.pending.size() - packed_members + packed.size();

  // Algorithm 3 end to end, on the cache the dispatcher would carry. Its
  // profile build and matching are internal, so their wall times are
  // read from the stage timers of this call's own sink frame.
  const std::vector<int> warm = options.warm_start_da ? warm_seed(frame) : std::vector<int>{};
  core::SharingOutcome outcome;
  double sharing_ms = 0.0;
  double sharing_cpu_ms = 0.0;
  const obs::FrameTrace sharing_frame = sink_frame(sink, [&] {
    const double cpu0 = cpu_ms();
    const auto start = Clock::now();
    outcome = core::dispatch_sharing(frame.idle, frame.pending, replay_oracle_, params, grid,
                                     &sharing_cache_, warm);
    sharing_ms = ms_since(start);
    sharing_cpu_ms = cpu_ms() - cpu0;
  });
  const double build_ms = stage_ms(sharing_frame, obs::Stage::kProfileBuild);
  const double inner_pack_ms = stage_ms(sharing_frame, obs::Stage::kGroupEnum) +
                               stage_ms(sharing_frame, obs::Stage::kPacking);
  sums["core.preferences.build_ms"] += build_ms;
  sums["core.preferences.build_cpu_ms"] +=
      std::max(0.0, sharing_cpu_ms - enum_cpu_ms - solve_ms -
                        std::max(0.0, sharing_ms - inner_pack_ms - build_ms));
  sums["core.preferences.pairs"] += count(sharing_frame, obs::Counter::kPreferencePairs);
  sums["core.preferences.dense_pairs"] += static_cast<double>(units * frame.idle.size());
  sums["core.stable_matching.da_ms"] += std::max(0.0, sharing_ms - inner_pack_ms - build_ms);
  sums["core.stable_matching.proposals"] += count(sharing_frame, obs::Counter::kProposals);
  sums["core.stable_matching.warm_seeds"] += count(sharing_frame, obs::Counter::kDaWarmSeeds);
  sums["core.stable_matching.components"] +=
      count(sharing_frame, obs::Counter::kShardComponents);
  if (outcome.feasible_groups != groups.size() || outcome.packed_groups != packed.size()) {
    error = "enumerate_share_groups / set packing disagree with dispatch_sharing";
  }

  const double speed = config_.simulation().speed_kmh / 3600.0;
  for (const core::SharedAssignment& shared : outcome.assignments) {
    sim::DispatchAssignment assignment;
    assignment.taxi = frame.idle[shared.taxi_index].id;
    for (std::size_t index : shared.request_indices) {
      assignment.requests.push_back(frame.pending[index].id);
    }
    assignment.route = shared.route;
    out.push_back(to_api(assignment, replay_oracle_, speed));
  }
  if (options.warm_start_da) remember(out);
  return sharing_ms;
}

double ratio(const std::map<std::string, double>& sums, const char* num, const char* den) {
  const auto n = sums.find(num);
  const auto d = sums.find(den);
  if (n == sums.end() || d == sums.end() || d->second == 0.0) return 0.0;
  return n->second / d->second;
}

}  // namespace

InProcessResult run_in_process(const WorkloadSpec& spec, const City& city,
                               const InProcessOptions& options) {
  InProcessResult result;
  const geo::DistanceOracle& base = *city.backend.oracle;
  CountingOracle counted(base);
  const geo::DistanceOracle& served_oracle =
      options.decorate_service ? static_cast<const geo::DistanceOracle&>(counted) : base;
  service::StreamingService svc(spec.kind, city.config, served_oracle);

  std::optional<LayerReplay> layers;
  std::optional<obs::TraceSink> sink;
  std::optional<obs::Activation> activation;
  if (options.traced) {
    layers.emplace(spec, city);
    sink.emplace(obs::TraceOptions{.enabled = true, .per_frame = true, .max_frames = 1u << 20});
    activation.emplace(*sink);
  }
  std::map<std::string, double>& sums = result.sums;

  sim::Simulator simulator(city.trace, city.fleet, base, city.config.simulation());
  std::vector<api::RideEvent> events;
  const auto serve = [&](const sim::DispatchContext& context, std::uint64_t frame) {
    const api::FrameRequest request = service::snapshot_to_request(context, frame);
    auto start = Clock::now();
    const std::vector<std::string> lines = service::encode_frame_events(request);
    const double encode_ms = ms_since(start);

    // The server's side of the wire, timed call by call.
    const auto frame_start = Clock::now();
    events.clear();
    std::size_t bytes = 0;
    bool decoded_all = true;
    for (const std::string& line : lines) {
      bytes += line.size() + 1;
      auto event = service::decode_event(line);
      if (!event) {
        decoded_all = false;
        continue;
      }
      events.push_back(std::move(*event));
    }
    const double decode_ms = ms_since(frame_start);
    // One thread both produces and matches here: a frame larger than the
    // ring would spin in submit() forever.
    if (events.size() >= city.config.service().ingest_capacity) {
      throw std::runtime_error("frame " + std::to_string(frame) +
                               " does not fit the ingestion ring in process");
    }
    start = Clock::now();
    for (const api::RideEvent& event : events) svc.submit(event);
    const double submit_ms = ms_since(start);
    start = Clock::now();
    const std::uint64_t sink_frames_before = sink ? sink->frames_recorded() : 0;
    const std::optional<api::FrameResponse> response = svc.next_response();
    const double next_ms = ms_since(start);
    start = Clock::now();
    const std::string response_line =
        response ? service::encode_response(*response) : std::string();
    const double response_encode_ms = ms_since(start);
    result.frame_ms.push_back(ms_since(frame_start));

    start = Clock::now();
    std::optional<api::FrameResponse> decoded;
    if (response) decoded = service::decode_response(response_line);
    const double response_decode_ms = ms_since(start);

    std::string error;
    if (!decoded_all || !response || !decoded || *decoded != *response) {
      error = "the in-process wire round trip lost or changed a frame";
    }
    if (options.traced && response) {
      sums["frames"] += 1;
      sums["service.codec.encode_ms"] += encode_ms;
      sums["service.codec.decode_ms"] += decode_ms;
      sums["service.codec.response_ms"] += response_encode_ms + response_decode_ms;
      sums["service.codec.bytes"] += static_cast<double>(bytes + response_line.size() + 1);
      sums["service.codec.events"] += static_cast<double>(lines.size());
      sums["service.ingest.submit_ms"] += submit_ms;
      sums["wire.frame_ms"] += result.frame_ms.back();
      sums["wire.total_ms"] +=
          encode_ms + decode_ms + submit_ms + next_ms + response_encode_ms + response_decode_ms;
      if (sink->frames_recorded() == sink_frames_before + 1) {
        const obs::FrameTrace& served = sink->frames().back();
        sums["service.ingest.wait_ms"] +=
            std::max(0.0, next_ms - stage_ms(served, obs::Stage::kServiceFrame));
        sums["service.ingest.backpressure"] +=
            count(served, obs::Counter::kIngestBackpressure);
        sums["service.ingest.queue_depth_peak"] =
            std::max(sums["service.ingest.queue_depth_peak"],
                     gauge(served, obs::Gauge::kQueueDepthPeak));
      }
      if (error.empty()) error = layers->replay(request, *response, *sink, sums);
    }
    if (!error.empty()) {
      ++result.errors;
      if (result.first_error.empty()) {
        result.first_error = "frame " + std::to_string(frame) + ": " + error;
      }
    }
    if (!decoded) return std::vector<sim::DispatchAssignment>{};
    if (options.keep_responses) result.responses.push_back(*decoded);
    return service::response_to_assignments(*decoded);
  };
  result.report = simulator.run_streamed(serve, spec.kind);
  svc.close();
  return result;
}

std::vector<Metric> layer_metrics(const InProcessResult& traced) {
  const std::map<std::string, double>& sums = traced.sums;
  const auto sum = [&](const char* name) {
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  };
  const double frames = std::max(1.0, sum("frames"));
  const auto mean = [&](const char* name) { return sum(name) / frames; };
  const double dispatch_ms = sum("service.session.dispatch_ms");
  const double tree = sum("geo.tree_hits") + sum("geo.tree_misses");
  const double snap = sum("geo.snap_hits") + sum("geo.snap_misses");
  const double cache = sum("packing.groups.cache_hits") + sum("packing.groups.cache_stores");
  return {
      {"service.codec.encode_ms", mean("service.codec.encode_ms"), "ms"},
      {"service.codec.decode_ms", mean("service.codec.decode_ms"), "ms"},
      {"service.codec.response_ms", mean("service.codec.response_ms"), "ms"},
      {"service.codec.bytes", mean("service.codec.bytes"), "B"},
      {"service.codec.events", mean("service.codec.events"), "count"},
      {"service.codec.wire_share",
       ratio(sums, "service.codec.encode_ms", "wire.total_ms") +
           ratio(sums, "service.codec.decode_ms", "wire.total_ms") +
           ratio(sums, "service.codec.response_ms", "wire.total_ms"),
       "ratio"},
      {"service.ingest.submit_ms", mean("service.ingest.submit_ms"), "ms"},
      {"service.ingest.wait_ms", mean("service.ingest.wait_ms"), "ms"},
      {"service.ingest.backpressure", mean("service.ingest.backpressure"), "count"},
      {"service.ingest.queue_depth_peak", sum("service.ingest.queue_depth_peak"), "count"},
      {"service.session.dispatch_ms", mean("service.session.dispatch_ms"), "ms"},
      {"service.session.dispatch_cpu_ms", mean("service.session.dispatch_cpu_ms"), "ms"},
      {"service.session.parallelism",
       dispatch_ms > 0.0 ? sum("service.session.dispatch_cpu_ms") / dispatch_ms : 0.0,
       "ratio"},
      {"service.session.overhead_ms", mean("service.session.overhead_ms"), "ms"},
      {"index.grid_build_ms", mean("index.grid_build_ms"), "ms"},
      {"core.preferences.build_ms", mean("core.preferences.build_ms"), "ms"},
      {"core.preferences.build_cpu_ms", mean("core.preferences.build_cpu_ms"), "ms"},
      {"core.preferences.pairs", mean("core.preferences.pairs"), "count"},
      {"core.preferences.prune_ratio",
       1.0 - ratio(sums, "core.preferences.pairs", "core.preferences.dense_pairs"), "ratio"},
      {"core.stable_matching.da_ms", mean("core.stable_matching.da_ms"), "ms"},
      {"core.stable_matching.proposals", mean("core.stable_matching.proposals"), "count"},
      {"core.stable_matching.warm_seeds", mean("core.stable_matching.warm_seeds"), "count"},
      {"core.stable_matching.components", mean("core.stable_matching.components"), "count"},
      {"core.stable_matching.blocking_pairs", sum("core.stable_matching.blocking_pairs"),
       "count"},
      {"packing.groups.enum_ms", mean("packing.groups.enum_ms"), "ms"},
      {"packing.groups.enum_cpu_ms", mean("packing.groups.enum_cpu_ms"), "ms"},
      {"packing.groups.candidates", mean("packing.groups.candidates"), "count"},
      {"packing.groups.feasible", mean("packing.groups.feasible"), "count"},
      {"packing.groups.feasible_ratio",
       ratio(sums, "packing.groups.feasible", "packing.groups.candidates"), "ratio"},
      {"packing.groups.cache_hit_ratio",
       cache > 0.0 ? sum("packing.groups.cache_hits") / cache : 0.0, "ratio"},
      {"packing.groups.dispatch_share",
       dispatch_ms > 0.0 ? sum("packing.groups.enum_ms") / dispatch_ms : 0.0, "ratio"},
      {"packing.set_packing.solve_ms", mean("packing.set_packing.solve_ms"), "ms"},
      {"packing.set_packing.packed_ratio",
       ratio(sums, "packing.set_packing.packed", "packing.groups.feasible"), "ratio"},
      {"geo.oracle.ms", mean("geo.oracle.ms"), "ms"},
      {"geo.oracle.calls", mean("geo.oracle.calls"), "count"},
      {"geo.oracle.row_cells", mean("geo.oracle.row_cells"), "count"},
      {"geo.oracle.tree_hit_ratio", tree > 0.0 ? sum("geo.tree_hits") / tree : 0.0, "ratio"},
      {"geo.oracle.snap_hit_ratio", snap > 0.0 ? sum("geo.snap_hits") / snap : 0.0, "ratio"},
      {"input.orders", mean("input.orders"), "count"},
      {"input.drivers", mean("input.drivers"), "count"},
      {"input.order_churn", ratio(sums, "churn.absent", "churn.orders"), "ratio"},
  };
}

}  // namespace perfbench
