// Exhaustive reference solvers for tiny instances. These exist so that
// the property-based tests can check Hungarian / bottleneck against
// ground truth; they are exponential and guarded by size preconditions.
#pragma once

#include "matching/cost_matrix.h"

namespace o2o::matching::reference {

/// Exact max-cardinality then min-total-cost assignment (rows <= 9).
Assignment brute_force_min_cost(const CostMatrix& costs);

/// Exact max-cardinality then min-bottleneck assignment (rows <= 9).
Assignment brute_force_min_max(const CostMatrix& costs);

}  // namespace o2o::matching::reference
