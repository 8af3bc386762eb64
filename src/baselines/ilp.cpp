#include "baselines/ilp.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "routing/optimizer.h"
#include "util/contracts.h"

namespace o2o::baselines {

namespace {

/// One binary variable of the joint program: unit (group or single
/// request) u served by taxi t along `route` of length `length_km`.
struct Option {
  std::vector<std::size_t> request_indices;  ///< into context.pending
  std::size_t taxi_index = 0;                ///< into context.idle_taxis
  routing::Route route;
  double length_km = 0.0;
};

struct Solution {
  std::vector<std::size_t> chosen;  ///< option indices
  std::size_t covered = 0;
  double length_km = 0.0;

  bool better_than(const Solution& other) const noexcept {
    if (covered != other.covered) return covered > other.covered;
    return length_km < other.length_km;
  }
};

/// Exact branch & bound over the option list: maximize covered requests,
/// then minimize total route length.
Solution solve_exact(const std::vector<Option>& options, std::size_t request_count,
                     std::size_t taxi_count) {
  // Optimistic suffix coverage for pruning.
  std::vector<std::size_t> suffix_cover(options.size() + 1, 0);
  for (std::size_t i = options.size(); i-- > 0;) {
    suffix_cover[i] = suffix_cover[i + 1] + options[i].request_indices.size();
  }

  std::vector<std::uint8_t> request_used(request_count, 0);
  std::vector<std::uint8_t> taxi_used(taxi_count, 0);
  Solution best;
  Solution current;

  const auto recurse = [&](auto&& self, std::size_t position) -> void {
    if (current.better_than(best)) best = current;
    if (position == options.size()) return;
    if (current.covered + suffix_cover[position] < best.covered) return;
    if (current.covered + suffix_cover[position] == best.covered &&
        current.length_km >= best.length_km) {
      return;
    }
    const Option& option = options[position];
    const bool taxi_free = !taxi_used[option.taxi_index];
    const bool requests_free =
        std::none_of(option.request_indices.begin(), option.request_indices.end(),
                     [&](std::size_t r) { return request_used[r]; });
    if (taxi_free && requests_free) {
      taxi_used[option.taxi_index] = 1;
      for (std::size_t r : option.request_indices) request_used[r] = 1;
      current.chosen.push_back(position);
      current.covered += option.request_indices.size();
      current.length_km += option.length_km;
      self(self, position + 1);
      current.length_km -= option.length_km;
      current.covered -= option.request_indices.size();
      current.chosen.pop_back();
      for (std::size_t r : option.request_indices) request_used[r] = 0;
      taxi_used[option.taxi_index] = 0;
    }
    self(self, position + 1);
  };
  recurse(recurse, 0);
  return best;
}

/// Greedy heuristic (the large-scale fallback of [6]): repeatedly take
/// the option with the lowest length per served request.
Solution solve_greedy(const std::vector<Option>& options, std::size_t request_count,
                      std::size_t taxi_count) {
  std::vector<std::size_t> order(options.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ka = options[a].length_km /
                      static_cast<double>(options[a].request_indices.size());
    const double kb = options[b].length_km /
                      static_cast<double>(options[b].request_indices.size());
    if (ka != kb) return ka < kb;
    return a < b;
  });
  std::vector<std::uint8_t> request_used(request_count, 0);
  std::vector<std::uint8_t> taxi_used(taxi_count, 0);
  Solution solution;
  for (std::size_t index : order) {
    const Option& option = options[index];
    if (taxi_used[option.taxi_index]) continue;
    if (std::any_of(option.request_indices.begin(), option.request_indices.end(),
                    [&](std::size_t r) { return request_used[r]; })) {
      continue;
    }
    taxi_used[option.taxi_index] = 1;
    for (std::size_t r : option.request_indices) request_used[r] = 1;
    solution.chosen.push_back(index);
    solution.covered += option.request_indices.size();
    solution.length_km += option.length_km;
  }
  return solution;
}

}  // namespace

IlpDispatcher::IlpDispatcher(IlpOptions options) : options_(std::move(options)) {
  O2O_EXPECTS(options_.candidate_taxis_per_unit >= 1);
}

std::vector<sim::DispatchAssignment> IlpDispatcher::dispatch(
    const sim::DispatchContext& context) {
  O2O_EXPECTS(context.oracle != nullptr);
  if (context.pending.empty() || context.idle_taxis.empty()) return {};
  const geo::DistanceOracle& oracle = *context.oracle;

  // Units: feasible share groups plus singletons.
  std::vector<std::vector<std::size_t>> units;
  for (const packing::ShareGroup& group : packing::enumerate_share_groups(
           context.pending, oracle, options_.grouping, /*taxi_seats=*/4)) {
    units.emplace_back(group.member_indices.begin(), group.member_indices.end());
  }
  for (std::size_t r = 0; r < context.pending.size(); ++r) units.push_back({r});

  // Options: each unit paired with its nearest candidate taxis.
  std::vector<Option> all_options;
  for (const std::vector<std::size_t>& unit : units) {
    std::vector<trace::Request> riders;
    int seats = 0;
    for (std::size_t r : unit) {
      riders.push_back(context.pending[r]);
      seats += context.pending[r].seats;
    }
    // Rank taxis by distance to the unit's first pick-up (cheap proxy).
    std::vector<std::pair<double, std::size_t>> ranked;
    for (std::size_t t = 0; t < context.idle_taxis.size(); ++t) {
      if (context.idle_taxis[t].seats < seats) continue;
      const double d =
          oracle.distance(context.idle_taxis[t].location, riders.front().pickup);
      if (d > options_.max_pickup_km) continue;
      ranked.emplace_back(d, t);
    }
    std::sort(ranked.begin(), ranked.end());
    if (ranked.size() > options_.candidate_taxis_per_unit) {
      ranked.resize(options_.candidate_taxis_per_unit);
    }
    for (const auto& [d, t] : ranked) {
      Option option;
      option.request_indices = unit;
      option.taxi_index = t;
      option.route =
          routing::optimal_route(riders, oracle, context.idle_taxis[t].location);
      option.length_km = routing::route_length(option.route, oracle);
      all_options.push_back(std::move(option));
    }
  }
  if (all_options.empty()) return {};

  const Solution solution =
      all_options.size() <= options_.exact_option_limit
          ? solve_exact(all_options, context.pending.size(), context.idle_taxis.size())
          : solve_greedy(all_options, context.pending.size(), context.idle_taxis.size());

  std::vector<sim::DispatchAssignment> assignments;
  assignments.reserve(solution.chosen.size());
  for (std::size_t index : solution.chosen) {
    const Option& option = all_options[index];
    sim::DispatchAssignment assignment;
    assignment.taxi = context.idle_taxis[option.taxi_index].id;
    for (std::size_t r : option.request_indices) {
      assignment.requests.push_back(context.pending[r].id);
    }
    assignment.route = option.route;
    assignments.push_back(std::move(assignment));
  }
  return assignments;
}

}  // namespace o2o::baselines
