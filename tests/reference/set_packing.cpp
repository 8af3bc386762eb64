#include "tests/reference/set_packing.h"

#include <algorithm>
#include <numeric>

#include "util/contracts.h"

namespace o2o::packing::reference {

namespace {

double weight_of(const SetPackingProblem& problem, std::size_t set_index) {
  return problem.weights.empty() ? 1.0 : problem.weights[set_index];
}

/// Occupancy bitmap over the universe.
struct Occupancy {
  std::vector<std::uint8_t> used;

  explicit Occupancy(std::size_t universe) : used(universe, 0) {}

  bool conflicts(const std::vector<std::size_t>& members) const {
    for (std::size_t e : members) {
      if (used[e]) return true;
    }
    return false;
  }
  void mark(const std::vector<std::size_t>& members, std::uint8_t value) {
    for (std::size_t e : members) used[e] = value;
  }
};

bool sets_disjoint(const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) {
  // Both sorted: linear merge scan.
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return false;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return true;
}

std::vector<std::size_t> preference_order(const SetPackingProblem& problem) {
  std::vector<std::size_t> order(problem.sets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double wa = weight_of(problem, a);
    const double wb = weight_of(problem, b);
    if (wa != wb) return wa > wb;
    if (problem.sets[a].size() != problem.sets[b].size()) {
      return problem.sets[a].size() < problem.sets[b].size();
    }
    return a < b;
  });
  return order;
}

void validate_problem(const SetPackingProblem& problem) {
  O2O_EXPECTS(problem.weights.empty() || problem.weights.size() == problem.sets.size());
  for (const auto& set : problem.sets) {
    O2O_EXPECTS(std::is_sorted(set.begin(), set.end()));
    O2O_EXPECTS(std::adjacent_find(set.begin(), set.end()) == set.end());
    for (std::size_t e : set) O2O_EXPECTS(e < problem.universe_size);
  }
}

}  // namespace

Packing solve_exact(const SetPackingProblem& problem, std::size_t max_sets) {
  validate_problem(problem);
  O2O_EXPECTS(problem.sets.size() <= max_sets);

  // Branch on sets in preference order; bound with the optimistic sum of
  // remaining weights.
  const std::vector<std::size_t> order = preference_order(problem);
  std::vector<double> suffix_weight(order.size() + 1, 0.0);
  for (std::size_t i = order.size(); i-- > 0;) {
    suffix_weight[i] = suffix_weight[i + 1] + weight_of(problem, order[i]);
  }

  Occupancy occupancy(problem.universe_size);
  Packing current, best;
  double current_weight = 0.0, best_weight = -1.0;

  const auto recurse = [&](auto&& self, std::size_t position) -> void {
    if (current_weight > best_weight) {
      best_weight = current_weight;
      best = current;
    }
    if (position == order.size()) return;
    if (current_weight + suffix_weight[position] <= best_weight) return;  // bound
    // Branch 1: take order[position] when disjoint.
    const std::size_t set_index = order[position];
    if (!occupancy.conflicts(problem.sets[set_index])) {
      occupancy.mark(problem.sets[set_index], 1);
      current.push_back(set_index);
      current_weight += weight_of(problem, set_index);
      self(self, position + 1);
      current_weight -= weight_of(problem, set_index);
      current.pop_back();
      occupancy.mark(problem.sets[set_index], 0);
    }
    // Branch 2: skip it.
    self(self, position + 1);
  };
  recurse(recurse, 0);
  O2O_ENSURES(is_valid_packing(problem, best));
  return best;
}

Packing solve_greedy(const SetPackingProblem& problem) {
  validate_problem(problem);
  Occupancy occupancy(problem.universe_size);
  Packing chosen;
  for (std::size_t index : preference_order(problem)) {
    if (occupancy.conflicts(problem.sets[index])) continue;
    occupancy.mark(problem.sets[index], 1);
    chosen.push_back(index);
  }
  O2O_ENSURES(is_valid_packing(problem, chosen));
  return chosen;
}

Packing solve_local_search(const SetPackingProblem& problem, std::size_t max_rounds) {
  validate_problem(problem);
  Packing chosen = reference::solve_greedy(problem);
  std::vector<std::uint8_t> in_packing(problem.sets.size(), 0);
  for (std::size_t index : chosen) in_packing[index] = 1;

  // element -> chosen set covering it (or npos)
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> covered_by(problem.universe_size, kNone);
  const auto rebuild_cover = [&] {
    std::fill(covered_by.begin(), covered_by.end(), kNone);
    for (std::size_t index : chosen) {
      for (std::size_t e : problem.sets[index]) covered_by[e] = index;
    }
  };
  rebuild_cover();

  for (std::size_t round = 0; round < max_rounds; ++round) {
    bool improved = false;
    // (2-for-1) swap: find two disjoint unchosen sets whose combined
    // conflicts hit at most one chosen set of no larger total weight.
    for (std::size_t a = 0; a < problem.sets.size() && !improved; ++a) {
      if (in_packing[a]) continue;
      // Chosen sets conflicting with a.
      std::size_t conflict_a = kNone;
      bool a_multi = false;
      for (std::size_t e : problem.sets[a]) {
        const std::size_t c = covered_by[e];
        if (c == kNone) continue;
        if (conflict_a == kNone) {
          conflict_a = c;
        } else if (conflict_a != c) {
          a_multi = true;
          break;
        }
      }
      if (a_multi) continue;
      if (conflict_a == kNone) {
        // a fits outright: greedy missed maximality after a prior swap.
        chosen.push_back(a);
        in_packing[a] = 1;
        for (std::size_t e : problem.sets[a]) covered_by[e] = a;
        improved = true;
        break;
      }
      for (std::size_t b = a + 1; b < problem.sets.size(); ++b) {
        if (in_packing[b]) continue;
        if (!sets_disjoint(problem.sets[a], problem.sets[b])) continue;
        std::size_t conflict_b = kNone;
        bool b_multi = false;
        for (std::size_t e : problem.sets[b]) {
          const std::size_t c = covered_by[e];
          if (c == kNone) continue;
          if (conflict_b == kNone) {
            conflict_b = c;
          } else if (conflict_b != c) {
            b_multi = true;
            break;
          }
        }
        if (b_multi) continue;
        if (conflict_b != kNone && conflict_a != conflict_b) continue;
        // Swap out conflict_a (== conflict_b or b conflict-free), swap in
        // {a, b} when that increases total weight.
        const double removed = weight_of(problem, conflict_a);
        const double added = weight_of(problem, a) + weight_of(problem, b);
        if (added <= removed) continue;
        chosen.erase(std::remove(chosen.begin(), chosen.end(), conflict_a), chosen.end());
        in_packing[conflict_a] = 0;
        chosen.push_back(a);
        chosen.push_back(b);
        in_packing[a] = 1;
        in_packing[b] = 1;
        rebuild_cover();
        improved = true;
        break;
      }
    }
    if (!improved) break;
  }
  O2O_ENSURES(is_valid_packing(problem, chosen));
  return chosen;
}

}  // namespace o2o::packing::reference
