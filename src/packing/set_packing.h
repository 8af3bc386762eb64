// Maximum Set Packing (Eqs. 1-3 of the paper): pick a maximum number of
// pairwise-disjoint share groups. NP-hard in general; the paper invokes
// the classical local-search approximation with ratio (max|c_k| + 2)/3
// [21] -- 5/3 for the practical |c_k| <= 3 regime. Three solvers:
//
//   * solve_exact        -- per-component branch & bound branching on the
//                           least-covered element, ground truth;
//   * solve_greedy       -- maximal packing in weight order;
//   * solve_local_search -- greedy + (2-for-1) swap improvements, the
//                           approximation the dispatcher uses.
//
// All three run on flat 64-bit-block bitsets (packing/bitset.h): element
// occupancy and set availability are word arrays, so conflict and
// disjointness checks are word-ANDs. `solve_greedy` and
// `solve_local_search` keep the exact scan order of the original byte-map
// implementations (preserved in tests/reference) and return identical
// packings; `solve_exact` finds the same optimum but returns the chosen
// indices sorted ascending and handles thousands of sets by decomposing
// the conflict graph into connected components first.
//
// Sets are given as member lists over an integer universe (request
// indices). Weights default to 1 (Eq. 1 counts packed subsets); the
// weighted variant supports the "maximize riders covered" ablation.
#pragma once

#include <cstdint>
#include <vector>

namespace o2o::packing {

struct SetPackingProblem {
  std::size_t universe_size = 0;
  std::vector<std::vector<std::size_t>> sets;  ///< element lists, each sorted
  std::vector<double> weights;                 ///< empty -> unit weights
};

/// Indices (into problem.sets) of the chosen pairwise-disjoint sets.
using Packing = std::vector<std::size_t>;

/// True iff `packing` is pairwise disjoint and indices are valid.
bool is_valid_packing(const SetPackingProblem& problem, const Packing& packing);

/// Total weight (count under unit weights).
double packing_weight(const SetPackingProblem& problem, const Packing& packing);

/// Exact maximum-weight packing. The conflict graph is split into
/// connected components; each component runs a branch & bound that
/// branches on the least-covered element (take each available covering
/// set, or leave the element uncovered), bounded by the optimistic sum of
/// still-available weights and seeded with the local-search incumbent.
/// Component locality is what moves the practical size cap from ~30 sets
/// to >= 10k; `max_sets` remains a hard guard against adversarial dense
/// instances. Returns indices sorted ascending.
Packing solve_exact(const SetPackingProblem& problem, std::size_t max_sets = 10'000);

/// Greedy: scan sets by non-increasing weight (ties: smaller set first,
/// then lower index) and keep every set disjoint from those kept so far.
Packing solve_greedy(const SetPackingProblem& problem);

/// Greedy start + local search: repeatedly replace one chosen set by two
/// disjoint unchosen sets when that increases the weight (and keep the
/// packing maximal). Terminates at a local optimum or `max_rounds`.
Packing solve_local_search(const SetPackingProblem& problem, std::size_t max_rounds = 64);

}  // namespace o2o::packing
