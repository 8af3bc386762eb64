#include "core/dispatchers.h"

#include <gtest/gtest.h>

#include "core/all_stable.h"
#include "core/selectors.h"
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

Frame random_frame(Rng& rng, std::size_t taxis, std::size_t requests) {
  Frame frame;
  for (std::size_t t = 0; t < taxis; ++t) {
    frame.taxis.push_back({static_cast<trace::TaxiId>(t),
                           {rng.uniform(0, 15), rng.uniform(0, 15)},
                           4});
  }
  for (std::size_t r = 0; r < requests; ++r) {
    trace::Request request;
    request.id = static_cast<trace::RequestId>(100 + r);  // non-dense ids
    request.pickup = {rng.uniform(0, 15), rng.uniform(0, 15)};
    request.dropoff = {rng.uniform(0, 15), rng.uniform(0, 15)};
    frame.requests.push_back(request);
  }
  return frame;
}

TEST(StableDispatcher, NamesFollowTheSide) {
  StableDispatcherOptions options;
  EXPECT_EQ(StableDispatcher(options, FromConfig{}).name(), "NSTD-P");
  options.side = ProposalSide::kTaxis;
  EXPECT_EQ(StableDispatcher(options, FromConfig{}).name(), "NSTD-T");
}

TEST(StableDispatcher, EmptyFrameYieldsNothing) {
  StableDispatcher dispatcher(StableDispatcherOptions{}, FromConfig{});
  Frame frame;
  EXPECT_TRUE(dispatcher.dispatch(frame.context()).empty());
}

TEST(StableDispatcher, AssignmentsMirrorTheStableMatching) {
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const Frame frame = random_frame(rng, 6, 9);
    StableDispatcherOptions options;
    options.preference.passenger_threshold_km = 9.0;
    options.preference.taxi_threshold_score = 2.0;
    StableDispatcher dispatcher(options, FromConfig{});
    const auto assignments = dispatcher.dispatch(frame.context());

    const PreferenceProfile profile = build_nonsharing_profile(
        frame.taxis, frame.requests, kOracle, options.preference);
    const Matching expected = gale_shapley_requests(profile);
    EXPECT_EQ(assignments.size(), expected.matched_count());
    for (const auto& assignment : assignments) {
      ASSERT_EQ(assignment.requests.size(), 1u);
      // Recover indices from ids and check the pair is the matched one.
      std::size_t r = 0, t = 0;
      for (std::size_t i = 0; i < frame.requests.size(); ++i) {
        if (frame.requests[i].id == assignment.requests[0]) r = i;
      }
      for (std::size_t i = 0; i < frame.taxis.size(); ++i) {
        if (frame.taxis[i].id == assignment.taxi) t = i;
      }
      EXPECT_EQ(expected.request_to_taxi[r], static_cast<int>(t));
      EXPECT_TRUE(assignment.route.start.has_value());
      EXPECT_EQ(assignment.route.stop_count(), 2u);
    }
  }
}

// NSTD-T runs taxi-proposing deferred acceptance; the paper defines it
// as the taxi-best pick from Algorithm 2's enumeration of every stable
// schedule. Lattice theory makes the two the same schedule -- check it
// at the dispatcher level.
TEST(StableDispatcher, EnumerationPathMatchesTaxiProposing) {
  Rng rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    const Frame frame = random_frame(rng, 5, 7);
    StableDispatcherOptions options;
    options.side = ProposalSide::kTaxis;
    StableDispatcher dispatcher(options, FromConfig{});
    const auto assignments = dispatcher.dispatch(frame.context());

    const PreferenceProfile profile = build_nonsharing_profile(
        frame.taxis, frame.requests, kOracle, options.preference);
    const AllStableResult all = enumerate_all_stable(profile);
    ASSERT_FALSE(all.truncated);
    const Matching& expected = select_taxi_optimal(all.matchings, profile);
    ASSERT_EQ(assignments.size(), expected.matched_count());
    for (const auto& assignment : assignments) {
      ASSERT_EQ(assignment.requests.size(), 1u);
      std::size_t r = 0, t = 0;
      for (std::size_t i = 0; i < frame.requests.size(); ++i) {
        if (frame.requests[i].id == assignment.requests[0]) r = i;
      }
      for (std::size_t i = 0; i < frame.taxis.size(); ++i) {
        if (frame.taxis[i].id == assignment.taxi) t = i;
      }
      EXPECT_EQ(expected.request_to_taxi[r], static_cast<int>(t));
    }
  }
}

TEST(SharingStableDispatcher, NamesFollowTheSide) {
  SharingStableDispatcherOptions options;
  EXPECT_EQ(SharingStableDispatcher(options, FromConfig{}).name(), "STD-P");
  options.params.side = ProposalSide::kTaxis;
  EXPECT_EQ(SharingStableDispatcher(options, FromConfig{}).name(), "STD-T");
}

TEST(SharingStableDispatcher, EmitsGroupRoutesWithOriginalIds) {
  Frame frame;
  frame.taxis = {{7, {-1.0, 0.0}, 4}};
  trace::Request a;
  a.id = 50;
  a.pickup = {0, 0};
  a.dropoff = {8, 0};
  trace::Request b = a;
  b.id = 51;
  b.pickup = {0.4, 0};
  b.dropoff = {8.4, 0};
  frame.requests = {a, b};

  SharingStableDispatcherOptions options;
  options.params.grouping.detour_threshold_km = 5.0;
  SharingStableDispatcher dispatcher(options, FromConfig{});
  const auto assignments = dispatcher.dispatch(frame.context());
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].taxi, 7);
  EXPECT_EQ(assignments[0].requests, (std::vector<trace::RequestId>{50, 51}));
  for (const auto& stop : assignments[0].route.stops) {
    EXPECT_TRUE(stop.request == 50 || stop.request == 51);
  }
}

TEST(SharingStableDispatcher, CandidateCapKeepsAssignmentsValid) {
  Rng rng(43);
  const Frame frame = random_frame(rng, 12, 15);
  SharingStableDispatcherOptions options;
  options.params.candidate_taxis_per_unit = 3;
  SharingStableDispatcher dispatcher(options, FromConfig{});
  const auto assignments = dispatcher.dispatch(frame.context());
  std::vector<int> taxi_used(frame.taxis.size(), 0);
  for (const auto& assignment : assignments) {
    for (std::size_t i = 0; i < frame.taxis.size(); ++i) {
      if (frame.taxis[i].id == assignment.taxi) {
        EXPECT_EQ(taxi_used[i]++, 0);
      }
    }
    EXPECT_TRUE(routing::respects_precedence(assignment.route));
  }
}

}  // namespace
}  // namespace o2o::core
