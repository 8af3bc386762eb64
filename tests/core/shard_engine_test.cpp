// Differential proof obligations for the component-sharded engine
// (core/shard_engine.h): on every geometry the sharded path must be
// bit-identical to the serial pass it replaces — for both proposal
// sides, and end to end through all four stable dispatchers.
#include "core/shard_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dispatchers.h"
#include "core/preferences.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace o2o::core {
namespace {

const geo::EuclideanOracle kOracle;

struct Frame {
  std::vector<trace::Taxi> taxis;
  std::vector<trace::Request> requests;

  sim::DispatchContext context() const {
    sim::DispatchContext ctx;
    ctx.idle_taxis = taxis;
    ctx.pending = requests;
    ctx.oracle = &kOracle;
    return ctx;
  }
};

void add_point(Frame& frame, Rng& rng, geo::Point center, double spread_km,
               bool taxi) {
  const geo::Point at{center.x + rng.uniform(-spread_km, spread_km),
                      center.y + rng.uniform(-spread_km, spread_km)};
  if (taxi) {
    frame.taxis.push_back({static_cast<trace::TaxiId>(frame.taxis.size()), at, 4});
  } else {
    trace::Request request;
    request.id = static_cast<trace::RequestId>(500 + frame.requests.size());
    request.pickup = at;
    request.dropoff = {at.x + rng.uniform(-4.0, 4.0), at.y + rng.uniform(-4.0, 4.0)};
    frame.requests.push_back(request);
  }
}

/// Uniform box: a mix of component sizes once thresholds are finite.
Frame random_frame(Rng& rng, std::size_t taxis, std::size_t requests,
                   double extent_km = 30.0) {
  Frame frame;
  for (std::size_t t = 0; t < taxis; ++t) {
    add_point(frame, rng, {extent_km / 2, extent_km / 2}, extent_km / 2, true);
  }
  for (std::size_t r = 0; r < requests; ++r) {
    add_point(frame, rng, {extent_km / 2, extent_km / 2}, extent_km / 2, false);
  }
  return frame;
}

/// Well-separated neighbourhoods: guarantees many components under a
/// finite passenger threshold (no cross-cluster pair is acceptable).
Frame clustered_frame(Rng& rng, std::size_t clusters, std::size_t taxis_per,
                      std::size_t requests_per) {
  Frame frame;
  for (std::size_t c = 0; c < clusters; ++c) {
    const geo::Point center{100.0 * static_cast<double>(c), 0.0};
    for (std::size_t t = 0; t < taxis_per; ++t) add_point(frame, rng, center, 1.5, true);
    for (std::size_t r = 0; r < requests_per; ++r) {
      add_point(frame, rng, center, 1.5, false);
    }
  }
  return frame;
}

/// Everything inside one tight box: a single giant component.
Frame giant_frame(Rng& rng, std::size_t taxis, std::size_t requests) {
  return random_frame(rng, taxis, requests, 2.0);
}

PreferenceParams finite_params() {
  PreferenceParams params;
  params.passenger_threshold_km = 6.0;
  params.taxi_threshold_score = 3.0;
  return params;
}

PreferenceProfile profile_of(const Frame& frame, const PreferenceParams& params) {
  return build_nonsharing_profile(frame.taxis, frame.requests, kOracle, params);
}

void expect_equal(const Matching& a, const Matching& b, const char* what) {
  EXPECT_EQ(a.request_to_taxi, b.request_to_taxi) << what;
  EXPECT_EQ(a.taxi_to_request, b.taxi_to_request) << what;
}

TEST(ExtractComponents, PartitionIsOrderedDisjointAndClosed) {
  Rng rng(7);
  const Frame frame = clustered_frame(rng, 4, 3, 4);
  const PreferenceProfile profile = profile_of(frame, finite_params());
  const ComponentPartition partition = extract_components(profile);

  ASSERT_GE(partition.components.size(), 4u);  // no cross-cluster edges
  std::vector<int> request_owner(profile.request_count(), -1);
  std::vector<int> taxi_owner(profile.taxi_count(), -1);
  std::size_t largest = 0;
  int previous_front = -1;
  for (std::size_t c = 0; c < partition.components.size(); ++c) {
    const ShardComponent& component = partition.components[c];
    ASSERT_FALSE(component.requests.empty());  // bipartite: every component has one
    // Merge order: components sorted by smallest member request id, and
    // member lists ascending.
    EXPECT_GT(component.requests.front(), previous_front);
    previous_front = component.requests.front();
    for (std::size_t i = 1; i < component.requests.size(); ++i) {
      EXPECT_LT(component.requests[i - 1], component.requests[i]);
    }
    for (std::size_t i = 1; i < component.taxis.size(); ++i) {
      EXPECT_LT(component.taxis[i - 1], component.taxis[i]);
    }
    for (const int r : component.requests) {
      EXPECT_EQ(request_owner[static_cast<std::size_t>(r)], -1);  // disjoint
      request_owner[static_cast<std::size_t>(r)] = static_cast<int>(c);
    }
    for (const int t : component.taxis) {
      EXPECT_EQ(taxi_owner[static_cast<std::size_t>(t)], -1);
      taxi_owner[static_cast<std::size_t>(t)] = static_cast<int>(c);
    }
    largest = std::max(largest, component.requests.size());
  }
  EXPECT_EQ(partition.largest_component_requests, largest);

  // Closure: every listed pair stays inside one component, and agents in
  // no component are exactly those with empty lists on both sides.
  std::size_t isolated_requests = 0, isolated_taxis = 0;
  for (std::size_t r = 0; r < profile.request_count(); ++r) {
    for (const int t : profile.request_list(r)) {
      EXPECT_EQ(request_owner[r], taxi_owner[static_cast<std::size_t>(t)]);
    }
    if (request_owner[r] == -1) {
      EXPECT_TRUE(profile.request_list(r).empty());
      ++isolated_requests;
    }
  }
  for (std::size_t t = 0; t < profile.taxi_count(); ++t) {
    if (taxi_owner[t] == -1) {
      EXPECT_TRUE(profile.taxi_list(t).empty());
      ++isolated_taxis;
    }
  }
  EXPECT_EQ(partition.isolated_requests, isolated_requests);
  EXPECT_EQ(partition.isolated_taxis, isolated_taxis);
}

TEST(ExtractComponents, GiantFrameCollapsesToOneComponent) {
  Rng rng(8);
  const Frame frame = giant_frame(rng, 8, 10);
  const PreferenceProfile profile = profile_of(frame, PreferenceParams{});
  const ComponentPartition partition = extract_components(profile);
  ASSERT_EQ(partition.components.size(), 1u);
  EXPECT_EQ(partition.components[0].requests.size(), 10u);
  EXPECT_EQ(partition.components[0].taxis.size(), 8u);
  EXPECT_EQ(partition.isolated_requests, 0u);
  EXPECT_EQ(partition.isolated_taxis, 0u);
}

TEST(ShardedGaleShapley, MatchesSerialAcrossGeometriesAndSides) {
  Rng rng(21);
  for (int trial = 0; trial < 6; ++trial) {
    const Frame frames[] = {random_frame(rng, 10, 14), clustered_frame(rng, 3, 4, 5),
                            giant_frame(rng, 7, 9)};
    for (const Frame& frame : frames) {
      const PreferenceProfile profile = profile_of(frame, finite_params());
      expect_equal(gale_shapley_requests(profile),
                   sharded_gale_shapley(profile, ProposalSide::kPassengers),
                   "passenger side");
      expect_equal(gale_shapley_taxis(profile),
                   sharded_gale_shapley(profile, ProposalSide::kTaxis), "taxi side");
    }
  }
}

TEST(ShardedGaleShapley, EmptyFramesComeBackAllDummy) {
  const PreferenceProfile no_requests = PreferenceProfile::from_scores({}, {}, 5);
  for (const ProposalSide side : {ProposalSide::kPassengers, ProposalSide::kTaxis}) {
    const Matching matching = sharded_gale_shapley(no_requests, side);
    EXPECT_TRUE(matching.request_to_taxi.empty());
    EXPECT_EQ(matching.taxi_to_request, (std::vector<int>(5, kDummy)));
  }

  const PreferenceProfile no_taxis = PreferenceProfile::from_scores(
      std::vector<std::vector<double>>(3), std::vector<std::vector<double>>(3), 0);
  for (const ProposalSide side : {ProposalSide::kPassengers, ProposalSide::kTaxis}) {
    const Matching matching = sharded_gale_shapley(no_taxis, side);
    EXPECT_EQ(matching.request_to_taxi, (std::vector<int>(3, kDummy)));
    EXPECT_TRUE(matching.taxi_to_request.empty());
  }
}

TEST(ShardedGaleShapley, SerialFallbackKnobChangesNothing) {
  Rng rng(23);
  const PreferenceProfile profile =
      profile_of(clustered_frame(rng, 3, 4, 5), finite_params());
  ShardOptions serial;
  serial.parallel = false;
  for (const ProposalSide side : {ProposalSide::kPassengers, ProposalSide::kTaxis}) {
    expect_equal(sharded_gale_shapley(profile, side, serial),
                 sharded_gale_shapley(profile, side), "parallel knob");
  }
}

std::vector<sim::DispatchAssignment> run_dispatcher(const Frame& frame,
                                                    StableDispatcherOptions options,
                                                    bool parallel) {
  options.sharding.parallel = parallel;
  StableDispatcher dispatcher(std::move(options), FromConfig{});
  return dispatcher.dispatch(frame.context());
}

std::vector<sim::DispatchAssignment> run_dispatcher(
    const Frame& frame, SharingStableDispatcherOptions options, bool parallel) {
  options.params.sharding.parallel = parallel;
  SharingStableDispatcher dispatcher(std::move(options), FromConfig{});
  return dispatcher.dispatch(frame.context());
}

void expect_same_assignments(const std::vector<sim::DispatchAssignment>& a,
                             const std::vector<sim::DispatchAssignment>& b,
                             const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].taxi, b[i].taxi) << what;
    EXPECT_EQ(a[i].requests, b[i].requests) << what;
    ASSERT_EQ(a[i].route.stops.size(), b[i].route.stops.size()) << what;
    for (std::size_t s = 0; s < a[i].route.stops.size(); ++s) {
      EXPECT_EQ(a[i].route.stops[s].request, b[i].route.stops[s].request) << what;
      EXPECT_EQ(a[i].route.stops[s].is_pickup, b[i].route.stops[s].is_pickup) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Warm-start seeding (DESIGN.md "Incremental frame engine"): any hint
// vector whatsoever must leave the output bit-identical to the unseeded
// run — the seeds are a proposal-count optimization, never a result.

TEST(WarmSeed, PinnedTwoByTwoRejectsTheOppositeOptimum) {
  // u1: t1 > t2, u2: t2 > t1; t1: u2 > u1, t2: u1 > u2. The two stable
  // matchings are the passenger optimum {u1-t1, u2-t2} and the taxi
  // optimum {u1-t2, u2-t1}. Seeding one side's DA with the *other*
  // side's optimum is the classic trap: every seeded pair is mutually
  // acceptable and its receiver free, so naive revalidation would pin
  // the proposer-pessimal matching. The sequential certificate rule
  // must reject both seeds (no already-installed hold justifies the
  // prefix rejections) and fall back to the cold result.
  const PreferenceProfile profile = PreferenceProfile::from_scores(
      {{1.0, 2.0}, {2.0, 1.0}}, {{2.0, 1.0}, {1.0, 2.0}}, 2);

  const std::vector<int> passenger_optimum = {0, 1};
  const std::vector<int> taxi_optimum = {1, 0};

  const Matching cold_p = sharded_gale_shapley(profile, ProposalSide::kPassengers);
  ASSERT_EQ(cold_p.request_to_taxi, passenger_optimum);
  expect_equal(cold_p,
               sharded_gale_shapley(profile, ProposalSide::kPassengers, {}, taxi_optimum),
               "adversarial seed, passenger side");

  const Matching cold_t = sharded_gale_shapley(profile, ProposalSide::kTaxis);
  ASSERT_EQ(cold_t.request_to_taxi, taxi_optimum);
  expect_equal(cold_t,
               sharded_gale_shapley(profile, ProposalSide::kTaxis, {}, passenger_optimum),
               "adversarial seed, taxi side");

  // The matching's own side *is* reachable by a DA prefix, so those
  // seeds must validate and be kept verbatim.
  expect_equal(cold_p,
               sharded_gale_shapley(profile, ProposalSide::kPassengers, {},
                                    passenger_optimum),
               "own optimum, passenger side");
  expect_equal(cold_t,
               sharded_gale_shapley(profile, ProposalSide::kTaxis, {}, taxi_optimum),
               "own optimum, taxi side");
}

TEST(WarmSeed, ArbitrarySeedsNeverChangeTheOutput) {
  Rng rng(31);
  for (int trial = 0; trial < 4; ++trial) {
    const Frame frames[] = {random_frame(rng, 10, 14), clustered_frame(rng, 3, 4, 5),
                            giant_frame(rng, 7, 9)};
    for (const Frame& frame : frames) {
      const PreferenceProfile profile = profile_of(frame, finite_params());
      const std::size_t n = profile.request_count();
      const int taxis = static_cast<int>(profile.taxi_count());
      for (const ProposalSide side : {ProposalSide::kPassengers, ProposalSide::kTaxis}) {
        const Matching cold = sharded_gale_shapley(profile, side);

        std::vector<int> rotated(n), garbage(n), pile(n, 0);
        for (std::size_t r = 0; r < n; ++r) {
          rotated[r] = cold.request_to_taxi[(r + 1) % n];
          garbage[r] = rng.bernoulli(0.3)
                           ? kDummy
                           : static_cast<int>(rng.uniform_index(
                                 static_cast<std::uint64_t>(taxis)));
        }
        expect_equal(cold, sharded_gale_shapley(profile, side, {}, cold.request_to_taxi),
                     "previous-frame seed");
        expect_equal(cold, sharded_gale_shapley(profile, side, {}, rotated),
                     "rotated seed");
        expect_equal(cold, sharded_gale_shapley(profile, side, {}, garbage),
                     "garbage seed");
        // Everyone hints the same taxi: a maximal duplicate-claim pile-up.
        expect_equal(cold, sharded_gale_shapley(profile, side, {}, pile),
                     "duplicate-claim seed");
      }
    }
  }
}

TEST(WarmSeed, OwnMatchingSeedsInstallAndSkipProposals) {
  Rng rng(33);
  const Frame frame = giant_frame(rng, 14, 18);
  const PreferenceProfile profile = profile_of(frame, PreferenceParams{});
  obs::TraceSink sink;
  obs::Activation guard(sink);
  const auto counter = [](const obs::FrameTrace& trace, obs::Counter which) {
    return trace.counters[static_cast<std::size_t>(which)];
  };

  sink.begin_frame(0, 0.0);
  const Matching cold = sharded_gale_shapley(profile, ProposalSide::kPassengers);
  const obs::FrameTrace cold_trace = sink.end_frame();
  EXPECT_EQ(counter(cold_trace, obs::Counter::kDaWarmSeeds), 0u);

  sink.begin_frame(1, 60.0);
  const Matching warm =
      sharded_gale_shapley(profile, ProposalSide::kPassengers, {}, cold.request_to_taxi);
  const obs::FrameTrace warm_trace = sink.end_frame();
  expect_equal(cold, warm, "seeded re-run");
  EXPECT_GT(counter(warm_trace, obs::Counter::kDaWarmSeeds), 0u);
  EXPECT_LT(counter(warm_trace, obs::Counter::kProposals),
            counter(cold_trace, obs::Counter::kProposals));
}

TEST(Dispatchers, AllFourAgreeShardedVersusSerialEndToEnd) {
  Rng rng(26);
  for (int trial = 0; trial < 4; ++trial) {
    const Frame frames[] = {random_frame(rng, 9, 12), clustered_frame(rng, 3, 3, 4),
                            giant_frame(rng, 6, 8)};
    for (const Frame& frame : frames) {
      StableDispatcherOptions nstd_p;
      nstd_p.preference = finite_params();
      StableDispatcherOptions nstd_t = nstd_p;
      nstd_t.side = ProposalSide::kTaxis;
      SharingStableDispatcherOptions std_p;
      std_p.params.preference = finite_params();
      SharingStableDispatcherOptions std_t = std_p;
      std_t.params.side = ProposalSide::kTaxis;

      expect_same_assignments(run_dispatcher(frame, nstd_p, true),
                              run_dispatcher(frame, nstd_p, false), "NSTD-P");
      expect_same_assignments(run_dispatcher(frame, nstd_t, true),
                              run_dispatcher(frame, nstd_t, false), "NSTD-T");
      expect_same_assignments(run_dispatcher(frame, std_p, true),
                              run_dispatcher(frame, std_p, false), "STD-P");
      expect_same_assignments(run_dispatcher(frame, std_t, true),
                              run_dispatcher(frame, std_t, false), "STD-T");
    }
  }
}

/// One step of frame churn for the warm-memory tests. Beyond the random
/// drop/move/arrive mix, it pins the two adversarial shapes the warm
/// path must absorb: a taxi the previous matching engaged leaves the
/// fleet (its hint no longer maps), and a matched request cancels while
/// its taxi stays (the taxi's hint goes unclaimed). Matched requests
/// otherwise deliberately stay pending — the re-dispatch shape in which
/// hints actually fire.
void churn_dispatch_frame(Frame& frame, Rng& rng,
                          const std::vector<sim::DispatchAssignment>& previous,
                          trace::RequestId& next_request_id,
                          trace::TaxiId& next_taxi_id) {
  if (!previous.empty()) {
    const trace::TaxiId departing = previous.front().taxi;
    std::erase_if(frame.taxis,
                  [&](const trace::Taxi& taxi) { return taxi.id == departing; });
    const trace::RequestId cancelled = previous.back().requests.front();
    std::erase_if(frame.requests,
                  [&](const trace::Request& r) { return r.id == cancelled; });
  }
  std::erase_if(frame.requests,
                [&](const trace::Request&) { return rng.bernoulli(0.15); });
  for (trace::Taxi& taxi : frame.taxis) {
    if (rng.bernoulli(0.3)) {
      taxi.location.x += rng.uniform(-1.0, 1.0);
      taxi.location.y += rng.uniform(-1.0, 1.0);
    }
  }
  for (int fresh = 0; fresh < 3; ++fresh) {
    trace::Request request;
    request.id = next_request_id++;
    request.pickup = {rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)};
    request.dropoff = {request.pickup.x + rng.uniform(-4.0, 4.0),
                       request.pickup.y + rng.uniform(-4.0, 4.0)};
    frame.requests.push_back(request);
  }
  frame.taxis.push_back(
      {next_taxi_id++, {rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)}, 4});
}

TEST(Dispatchers, WarmStartMemoryMatchesColdAcrossChurnedFrames) {
  Rng rng(37);
  for (const ProposalSide side : {ProposalSide::kPassengers, ProposalSide::kTaxis}) {
    Frame frame = random_frame(rng, 12, 16);
    trace::RequestId next_request_id = 900;
    trace::TaxiId next_taxi_id = 100;

    StableDispatcherOptions nonsharing;
    nonsharing.preference = finite_params();
    nonsharing.side = side;
    StableDispatcherOptions nonsharing_cold = nonsharing;
    nonsharing_cold.warm_start_da = false;
    StableDispatcher warm(nonsharing, FromConfig{});
    StableDispatcher cold(nonsharing_cold, FromConfig{});

    SharingStableDispatcherOptions sharing;
    sharing.params.preference = finite_params();
    sharing.params.side = side;
    SharingStableDispatcherOptions sharing_cold = sharing;
    sharing_cold.warm_start_da = false;
    SharingStableDispatcher sharing_warm(sharing, FromConfig{});
    SharingStableDispatcher sharing_cold_dispatcher(sharing_cold, FromConfig{});

    std::vector<sim::DispatchAssignment> previous;
    for (int step = 0; step < 8; ++step) {
      const sim::DispatchContext context = frame.context();
      const auto warm_result = warm.dispatch(context);
      expect_same_assignments(warm_result, cold.dispatch(context), "non-sharing churn");
      expect_same_assignments(sharing_warm.dispatch(context),
                              sharing_cold_dispatcher.dispatch(context),
                              "sharing churn");
      previous = warm_result;
      churn_dispatch_frame(frame, rng, previous, next_request_id, next_taxi_id);
    }
  }
}

}  // namespace
}  // namespace o2o::core
