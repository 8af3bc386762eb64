// Candidate-row storage shared by the profile builds' row loops
// (build_nonsharing_profile and dispatch_sharing). Internal to o2o_core.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/preferences.h"

namespace o2o::core::detail {

/// The calling thread's candidate storage for one build. Each pool lane
/// appends its rows to its own flat arena and records where each row
/// went; the rows become spans only after the loop, when no arena grows
/// any more. The set belongs to the thread that runs the build, never to
/// a pool worker, so concurrent builds on different threads never share
/// an arena. `Scratch` is the builder's per-lane row scratch, with a
/// reserve(taxi_count) member.
template <typename Scratch>
struct CandidateArenas {
  using Candidate = PreferenceProfile::Candidate;
  struct RowRef {
    std::size_t lane = 0;
    std::size_t offset = 0;
    std::size_t size = 0;
  };
  struct Lane {
    std::vector<Candidate> candidates;
    Scratch scratch;
  };
  std::vector<Lane> lanes;
  std::vector<RowRef> refs;
  std::vector<std::span<Candidate>> rows;
  std::size_t pairs = 0;       ///< candidates of the last resolved build
  std::size_t peak_pairs = 0;  ///< the most candidates any build produced

  /// Readies `lane_count` empty lanes for `row_count` rows over
  /// `taxi_count` taxis. Arenas keep their capacity from build to build,
  /// and the per-row scratch is sized to the fleet up front.
  void begin(std::size_t lane_count, std::size_t row_count, std::size_t taxi_count) {
    if (lanes.size() < lane_count) lanes.resize(lane_count);
    for (Lane& lane : lanes) {
      lane.candidates.clear();
      lane.scratch.reserve(taxi_count);
    }
    refs.resize(row_count);
  }

  /// `lane`'s arena with room for `count` more candidates. A lane that
  /// must grow grows at once to the largest build so far, so a warm lane
  /// reallocates at most once, however the pool splits the rows.
  std::vector<Candidate>& arena(std::size_t lane, std::size_t count) {
    std::vector<Candidate>& candidates = lanes[lane].candidates;
    const std::size_t needed = candidates.size() + count;
    if (needed > candidates.capacity()) candidates.reserve(std::max(peak_pairs, 2 * needed));
    return candidates;
  }

  /// Resolves every row reference to a span into its lane's arena.
  std::span<const std::span<Candidate>> resolve() {
    rows.resize(refs.size());
    pairs = 0;
    for (std::size_t r = 0; r < refs.size(); ++r) {
      const RowRef& ref = refs[r];
      rows[r] = std::span<Candidate>(lanes[ref.lane].candidates).subspan(ref.offset, ref.size);
      pairs += ref.size;
    }
    peak_pairs = std::max(peak_pairs, pairs);
    return rows;
  }
};

}  // namespace o2o::core::detail
