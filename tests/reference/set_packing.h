// Pre-bitset set-packing solvers, preserved verbatim as the differential
// reference for `tests/packing/sharing_engine_test.cpp`. Semantics
// documented in packing/set_packing.h; do not modify these when tuning
// the production solvers.
#pragma once

#include "packing/set_packing.h"

namespace o2o::packing::reference {

/// Branch & bound over sets in preference order, suffix-weight bound.
/// Exponential; precondition `sets.size() <= max_sets`.
Packing solve_exact(const SetPackingProblem& problem, std::size_t max_sets = 26);

/// Weight-ordered maximal packing over a byte occupancy map.
Packing solve_greedy(const SetPackingProblem& problem);

/// Greedy start + (2-for-1) swap improvements.
Packing solve_local_search(const SetPackingProblem& problem, std::size_t max_rounds = 64);

}  // namespace o2o::packing::reference
