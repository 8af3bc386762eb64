#include "tests/reference/brute_force.h"

#include <limits>
#include <vector>

namespace o2o::matching::reference {

namespace {

struct SearchState {
  const CostMatrix& costs;
  Assignment current;
  std::vector<bool> used;
  Assignment best;
  std::size_t best_size = 0;
  double best_objective = std::numeric_limits<double>::infinity();
  bool bottleneck = false;

  void consider() {
    const std::size_t size = assignment_size(current);
    const double objective =
        bottleneck ? assignment_bottleneck(costs, current) : assignment_cost(costs, current);
    if (size > best_size || (size == best_size && objective < best_objective)) {
      best_size = size;
      best_objective = objective;
      best = current;
    }
  }

  void recurse(std::size_t row) {
    if (row == costs.rows()) {
      consider();
      return;
    }
    current[row] = -1;
    recurse(row + 1);
    for (std::size_t c = 0; c < costs.cols(); ++c) {
      if (used[c] || costs.forbidden(row, c)) continue;
      used[c] = true;
      current[row] = static_cast<int>(c);
      recurse(row + 1);
      current[row] = -1;
      used[c] = false;
    }
  }
};

Assignment brute_force(const CostMatrix& costs, bool bottleneck) {
  O2O_EXPECTS(costs.rows() <= 9);
  SearchState state{costs,
                    Assignment(costs.rows(), -1),
                    std::vector<bool>(costs.cols(), false),
                    Assignment(costs.rows(), -1),
                    0,
                    std::numeric_limits<double>::infinity(),
                    bottleneck};
  state.recurse(0);
  return state.best;
}

}  // namespace

Assignment brute_force_min_cost(const CostMatrix& costs) { return brute_force(costs, false); }

Assignment brute_force_min_max(const CostMatrix& costs) { return brute_force(costs, true); }

}  // namespace o2o::matching::reference
