#include "core/shard_engine.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>

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

  // First-seen scan over requests ascending orders the components by
  // smallest member request id — the deterministic merge order the
  // sharded engine's contract promises (see core/ties.h). A counting
  // pass then lays each side's members out component by component,
  // ascending within each.
  ComponentPartition partition;
  std::vector<std::size_t> component_of(requests + taxis, SIZE_MAX);
  // Members of component c: [request_start[c], request_start[c + 1]) of
  // request_members, once the counts below are summed; likewise taxis.
  std::vector<std::size_t> request_start;
  std::vector<std::size_t> taxi_start;
  const std::size_t max_components = std::min(requests, uf.set_count());
  request_start.reserve(max_components + 1);
  taxi_start.reserve(max_components + 1);
  for (std::size_t r = 0; r < requests; ++r) {
    if (uf.set_size(r) == 1) {
      ++partition.isolated_requests;
      continue;
    }
    std::size_t& slot = component_of[uf.find(r)];
    if (slot == SIZE_MAX) {
      slot = request_start.size();
      request_start.push_back(0);
      taxi_start.push_back(0);
    }
    ++request_start[slot];
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
    ++taxi_start[slot];
  }
  const std::size_t count = request_start.size();
  for (std::size_t c = 0; c < count; ++c) {
    partition.largest_component_requests =
        std::max(partition.largest_component_requests, request_start[c]);
  }
  // Exclusive prefix sums: the counts become start offsets.
  const auto to_starts = [](std::vector<std::size_t>& counts) {
    std::size_t sum = 0;
    for (std::size_t& entry : counts) sum += std::exchange(entry, sum);
    counts.push_back(sum);
  };
  to_starts(request_start);
  to_starts(taxi_start);
  partition.request_members.resize(request_start.back());
  partition.taxi_members.resize(taxi_start.back());
  {
    std::vector<std::size_t> cursor(request_start.begin(), request_start.end() - 1);
    for (std::size_t r = 0; r < requests; ++r) {
      if (uf.set_size(r) == 1) continue;
      partition.request_members[cursor[component_of[uf.find(r)]]++] = static_cast<int>(r);
    }
    cursor.assign(taxi_start.begin(), taxi_start.end() - 1);
    for (std::size_t t = 0; t < taxis; ++t) {
      if (uf.set_size(requests + t) == 1) continue;
      partition.taxi_members[cursor[component_of[uf.find(requests + t)]]++] =
          static_cast<int>(t);
    }
  }
  partition.components.resize(count);
  const std::span<const int> request_members(partition.request_members);
  const std::span<const int> taxi_members(partition.taxi_members);
  for (std::size_t c = 0; c < count; ++c) {
    partition.components[c].requests =
        request_members.subspan(request_start[c], request_start[c + 1] - request_start[c]);
    partition.components[c].taxis =
        taxi_members.subspan(taxi_start[c], taxi_start[c + 1] - taxi_start[c]);
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
  // Each component's deferred-acceptance pass keeps its free proposers
  // in its own slice of one shared stack: the slice sits where the
  // component's proposers sit in the partition's flat member array.
  const std::vector<int>& proposers = side == ProposalSide::kPassengers
                                          ? partition.request_members
                                          : partition.taxi_members;
  std::vector<std::size_t> stack(proposers.size());

  const auto stack_of = [&](std::span<const int> members) {
    return std::span<std::size_t>(stack).subspan(
        static_cast<std::size_t>(members.data() - proposers.data()), members.size());
  };
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
                                           taxi_match, next_choice,
                                           stack_of(component.requests));
    } else {
      if (!taxi_seed.empty()) {
        const std::size_t seeded = detail::warm_seed_taxis(
            profile, component.taxis, taxi_seed, taxi_match, request_match, next_choice);
        obs::add(obs::Counter::kDaWarmSeeds, seeded);
      }
      detail::deferred_acceptance_taxis(profile, component.taxis, taxi_match, request_match,
                                        next_choice, stack_of(component.taxis));
    }
    O2O_ENSURES(detail::component_stable(profile, component.requests, component.taxis,
                                         request_match, taxi_match));
  });

  return make_matching(std::move(request_match), profile.taxi_count());
}

}  // namespace o2o::core
