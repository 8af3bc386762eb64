// Shared generators for the core tests: random geometric dispatch
// instances and random abstract preference profiles.
#pragma once

#include <span>
#include <vector>

#include "core/preferences.h"
#include "util/rng.h"

namespace o2o::core::testing {

/// A preference list's elements, for comparing lists with EXPECT_EQ.
inline std::vector<int> as_vector(std::span<const int> list) {
  return {list.begin(), list.end()};
}

struct RandomInstance {
  std::vector<trace::Taxi> taxis;
  std::vector<trace::Request> requests;
};

inline RandomInstance random_instance(Rng& rng, std::size_t requests, std::size_t taxis,
                                      double extent = 10.0) {
  RandomInstance instance;
  for (std::size_t t = 0; t < taxis; ++t) {
    trace::Taxi taxi;
    taxi.id = static_cast<trace::TaxiId>(t);
    taxi.location = {rng.uniform(0, extent), rng.uniform(0, extent)};
    taxi.seats = 4;
    instance.taxis.push_back(taxi);
  }
  for (std::size_t r = 0; r < requests; ++r) {
    trace::Request request;
    request.id = static_cast<trace::RequestId>(r);
    request.time_seconds = 0.0;
    request.pickup = {rng.uniform(0, extent), rng.uniform(0, extent)};
    request.dropoff = {rng.uniform(0, extent), rng.uniform(0, extent)};
    request.seats = 1;
    instance.requests.push_back(request);
  }
  return instance;
}

/// Random score-matrix profile with a given fraction of unacceptable
/// entries on each side (scores drawn independently; ties are measure
/// zero, tie-breaking still deterministic).
inline PreferenceProfile random_profile(Rng& rng, std::size_t requests, std::size_t taxis,
                                        double unacceptable_fraction = 0.0) {
  std::vector<std::vector<double>> passenger(requests, std::vector<double>(taxis));
  std::vector<std::vector<double>> taxi(requests, std::vector<double>(taxis));
  for (std::size_t r = 0; r < requests; ++r) {
    for (std::size_t t = 0; t < taxis; ++t) {
      passenger[r][t] =
          rng.bernoulli(unacceptable_fraction) ? kUnacceptable : rng.uniform(0, 100);
      taxi[r][t] =
          rng.bernoulli(unacceptable_fraction) ? kUnacceptable : rng.uniform(-50, 50);
    }
  }
  return PreferenceProfile::from_scores(std::move(passenger), std::move(taxi), taxis);
}

}  // namespace o2o::core::testing
