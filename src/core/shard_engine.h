// Component-sharded stable dispatch.
//
// A PreferenceProfile induces a bipartite graph over (requests,
// taxis): every listed pair — on either side's candidate list — is an
// edge. Deferred acceptance and Definition-1 stability only ever
// propagate influence along listed pairs, and the dummy thresholds are
// per-agent, so the matching problem factorizes *exactly* over the
// connected components of that graph: no proposal, refusal or blocking
// pair can cross a component boundary.
//
// The engine extracts components with a union-find pass, runs the
// paper's proposal loop independently per component on the shared
// ThreadPool, and merges by letting each component write its members'
// slots in a shared, preallocated result (components are ordered by
// smallest member request id; slots are disjoint, so the merge is
// deterministic no matter how the pool schedules the tasks). Output is
// bit-identical to the serial path; tests/core/shard_engine_test.cpp
// proves it differentially and bench/micro_shard measures the speedup.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/stable_matching.h"

namespace o2o::core {

/// Knobs of the sharded engine, carried by the dispatcher option structs
/// and surfaced through DispatchConfig::sharding(). The merge is always
/// deterministic: components ordered by smallest member request id, each
/// writing disjoint slots of a shared result.
struct ShardOptions {
  /// Master switch: false routes to the legacy serial pass verbatim
  /// (counted as obs::Counter::kShardFallbacks).
  bool parallel = true;

  friend bool operator==(const ShardOptions&, const ShardOptions&) = default;
};

/// One connected component of the profile's candidate graph. Member
/// lists are ascending global indices, viewing the owning
/// ComponentPartition's flat member arrays.
struct ShardComponent {
  std::span<const int> requests;
  std::span<const int> taxis;
};

/// Every component with at least one listed pair, ordered by smallest
/// member request id (every such component contains a request, the graph
/// being bipartite). Agents with empty candidate lists on both sides are
/// isolated — always matched to the dummy — and appear in no component.
///
/// The members of all components sit in two flat arrays, component after
/// component, so a partition costs a fixed number of allocations however
/// many components it holds. Move-only: the component spans point into
/// the partition's own arrays.
struct ComponentPartition {
  ComponentPartition() = default;
  ComponentPartition(ComponentPartition&&) = default;
  ComponentPartition& operator=(ComponentPartition&&) = default;
  ComponentPartition(const ComponentPartition&) = delete;
  ComponentPartition& operator=(const ComponentPartition&) = delete;

  std::vector<ShardComponent> components;
  std::vector<int> request_members;  ///< components[c].requests, concatenated
  std::vector<int> taxi_members;     ///< components[c].taxis, concatenated
  std::size_t isolated_requests = 0;
  std::size_t isolated_taxis = 0;
  std::size_t largest_component_requests = 0;
};

/// Union-find pass over the candidate lists (obs stage
/// component_extract; reports shard_components / largest_component_peak).
ComponentPartition extract_components(const PreferenceProfile& profile);

/// Deferred acceptance sharded over components. Bit-identical to
/// gale_shapley_requests (kPassengers) / gale_shapley_taxis (kTaxis).
///
/// `warm_seed` (optional; empty disables) is a request->taxi hint vector
/// of profile.request_count() entries (kDummy where no hint), typically
/// the previous frame's matching re-indexed to this frame. Seeds pass
/// the sequential prefix-certificate validation of
/// detail::warm_seed_requests/_taxis before deferred acceptance runs —
/// validation happens per component inside the parallel pass — so the
/// output stays bit-identical to the unseeded run; only the proposal
/// count shrinks. For kTaxis the hints are inverted to taxi->request
/// (lowest request wins a conflict) before validation.
Matching sharded_gale_shapley(const PreferenceProfile& profile, ProposalSide side,
                              const ShardOptions& options = {},
                              std::span<const int> warm_seed = {});

}  // namespace o2o::core
