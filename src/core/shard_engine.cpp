#include "core/shard_engine.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>

#include "index/union_find.h"
#include "obs/obs.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace o2o::core {

namespace {

/// Runs body(i) over the components, largest (by member requests) first
/// so the long poles start immediately and the tail of small components
/// fills the idle lanes. Work order does not affect the result — every
/// component writes disjoint slots — only the wall clock.
void for_each_component(const std::vector<ShardComponent>& components,
                        const std::function<void(std::size_t)>& body) {
  std::vector<std::size_t> order(components.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return components[a].requests.size() > components[b].requests.size();
  });
  ThreadPool& pool = ThreadPool::shared();
  if (pool.worker_count() == 0 || components.size() < 2) {
    for (const std::size_t i : order) body(i);
    return;
  }
  pool.parallel_for(0, order.size(), /*grain=*/1,
                    [&](std::size_t i) { body(order[i]); });
}

}  // namespace

ComponentPartition extract_components(const PreferenceProfile& profile) {
  obs::StageTimer timer(obs::Stage::kComponentExtract);
  const std::size_t requests = profile.request_count();
  const std::size_t taxis = profile.taxi_count();

  // Bipartite node layout: requests first, taxi t at requests + t. Both
  // sides' lists are united: a pair listed only by the taxi still makes
  // the taxi propose to (and get refused by) that request, so it must
  // land in the same component for the pass to stay self-contained.
  index::UnionFind uf(requests + taxis);
  for (std::size_t r = 0; r < requests; ++r) {
    for (const int t : profile.request_list(r)) {
      uf.unite(r, requests + static_cast<std::size_t>(t));
    }
  }
  for (std::size_t t = 0; t < taxis; ++t) {
    for (const int r : profile.taxi_list(t)) {
      uf.unite(requests + t, static_cast<std::size_t>(r));
    }
  }

  ComponentPartition partition;
  partition.components.reserve(std::min(requests, uf.set_count()));

  // First-seen scan over requests ascending orders the components by
  // smallest member request id — the deterministic merge order the
  // sharded engine's contract promises (see core/ties.h).
  std::vector<std::size_t> component_of(requests + taxis, SIZE_MAX);
  for (std::size_t r = 0; r < requests; ++r) {
    if (uf.set_size(r) == 1) {
      ++partition.isolated_requests;
      continue;
    }
    const std::size_t root = uf.find(r);
    std::size_t& slot = component_of[root];
    if (slot == SIZE_MAX) {
      slot = partition.components.size();
      partition.components.emplace_back();
    }
    partition.components[slot].requests.push_back(static_cast<int>(r));
  }
  for (std::size_t t = 0; t < taxis; ++t) {
    if (uf.set_size(requests + t) == 1) {
      ++partition.isolated_taxis;
      continue;
    }
    const std::size_t slot = component_of[uf.find(requests + t)];
    // Every non-singleton set contains a request (edges are bipartite),
    // so the request scan above created its component.
    O2O_ENSURES(slot != SIZE_MAX);
    partition.components[slot].taxis.push_back(static_cast<int>(t));
  }
  for (const ShardComponent& component : partition.components) {
    partition.largest_component_requests =
        std::max(partition.largest_component_requests, component.requests.size());
  }

  obs::add(obs::Counter::kShardComponents, partition.components.size());
  obs::gauge_max(obs::Gauge::kLargestComponentPeak, partition.largest_component_requests);
  return partition;
}

Matching sharded_gale_shapley(const PreferenceProfile& profile, ProposalSide side,
                              const ShardOptions& options,
                              std::span<const int> warm_seed) {
  O2O_EXPECTS(warm_seed.empty() || warm_seed.size() == profile.request_count());
  if (!options.parallel) {
    // The serial fallback is the cold differential reference; seeds are
    // deliberately ignored (the output is identical either way).
    obs::add(obs::Counter::kShardFallbacks);
    return side == ProposalSide::kPassengers ? gale_shapley_requests(profile)
                                             : gale_shapley_taxis(profile);
  }

  const ComponentPartition partition = extract_components(profile);

  // Hints arrive request->taxi; the taxi-proposing side validates
  // taxi->request, so invert (lowest request deterministically wins a
  // duplicate-taxi conflict — ascending scan, first writer keeps).
  std::vector<int> taxi_seed;
  if (!warm_seed.empty() && side == ProposalSide::kTaxis) {
    taxi_seed.assign(profile.taxi_count(), kDummy);
    for (std::size_t r = 0; r < warm_seed.size(); ++r) {
      const int t = warm_seed[r];
      if (t == kDummy) continue;
      if (t >= 0 && static_cast<std::size_t>(t) < taxi_seed.size() &&
          taxi_seed[static_cast<std::size_t>(t)] == kDummy) {
        taxi_seed[static_cast<std::size_t>(t)] = static_cast<int>(r);
      }
    }
  }

  // Shared, preallocated result: every component call writes only its
  // members' slots (the subset deferred-acceptance contract), so the
  // concurrent passes compose into exactly the serial outcome — deferred
  // acceptance is proposal-order independent, and isolated agents stay
  // at the dummy untouched.
  std::vector<int> request_match(profile.request_count(), kDummy);
  std::vector<int> taxi_match(profile.taxi_count(), kDummy);
  std::vector<std::size_t> next_choice(
      side == ProposalSide::kPassengers ? profile.request_count() : profile.taxi_count(), 0);

  for_each_component(partition.components, [&](std::size_t i) {
    const ShardComponent& component = partition.components[i];
    // Accrues per-component: in sharded frames the stable_matching stage
    // reads as CPU time summed over components (load, not wall).
    obs::StageTimer timer(obs::Stage::kStableMatching);
    if (side == ProposalSide::kPassengers) {
      if (!warm_seed.empty()) {
        const std::size_t seeded = detail::warm_seed_requests(
            profile, component.requests, warm_seed, request_match, taxi_match, next_choice);
        obs::add(obs::Counter::kDaWarmSeeds, seeded);
      }
      detail::deferred_acceptance_requests(profile, component.requests, request_match,
                                           taxi_match, next_choice);
    } else {
      if (!taxi_seed.empty()) {
        const std::size_t seeded = detail::warm_seed_taxis(
            profile, component.taxis, taxi_seed, taxi_match, request_match, next_choice);
        obs::add(obs::Counter::kDaWarmSeeds, seeded);
      }
      detail::deferred_acceptance_taxis(profile, component.taxis, taxi_match, request_match,
                                        next_choice);
    }
    O2O_ENSURES(detail::component_stable(profile, component.requests, component.taxis,
                                         request_match, taxi_match));
  });

  return make_matching(std::move(request_match), profile.taxi_count());
}

}  // namespace o2o::core
