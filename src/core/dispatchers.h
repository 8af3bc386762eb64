// Simulator adapters for the paper's algorithms:
//
//   StableDispatcher          -- NSTD-P / NSTD-T (Section IV)
//   SharingStableDispatcher   -- STD-P / STD-T   (Section V)
//
// Both dispatch only idle taxis within the current frame, exactly as the
// paper's batched model prescribes.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sharing.h"
#include "core/stable_matching.h"
#include "sim/dispatcher.h"

namespace o2o::core {

/// Tag selecting the supported construction path: the o2o::DispatchConfig
/// factories (make_nstd_p / make_nstd_t / make_std_p / make_std_t /
/// make_dispatcher) build dispatchers through it after validating the
/// whole config bundle. The legacy one-argument constructors that took a
/// bare option struct without validation have been removed (see README,
/// "Breaking changes").
struct FromConfig {
  explicit FromConfig() = default;
};

struct StableDispatcherOptions {
  PreferenceParams preference;
  /// kTaxis is NSTD-T. The paper picks the taxi-best schedule from
  /// Algorithm 2's enumeration of every stable schedule; by lattice
  /// theory that is the taxi-proposing deferred-acceptance outcome, which
  /// is what runs here (tests cross-check it against Algorithm 2).
  ProposalSide side = ProposalSide::kPassengers;
  /// Component-sharded matching engine (core/shard_engine.h). On by
  /// default: the output is bit-identical to the serial pass.
  ShardOptions sharding;
  /// Warm-start deferred acceptance from the previous dispatch call's
  /// matching (DESIGN.md "Incremental frame engine"). The dispatcher
  /// remembers request-id -> taxi-id pairs across frames; hints that
  /// survive the sequential seed validation skip their proposal prefix,
  /// the rest run cold — the output is bit-identical either way, so the
  /// knob only trades memory for proposals. Ignored on the serial
  /// fallback (a cold reference).
  bool warm_start_da = true;
};

/// Non-sharing stable dispatch (Algorithms 1 and 2).
class StableDispatcher final : public sim::Dispatcher {
 public:
  StableDispatcher(StableDispatcherOptions options, FromConfig);

  std::string name() const override;
  std::vector<sim::DispatchAssignment> dispatch(const sim::DispatchContext& context) override;

 private:
  StableDispatcherOptions options_;
  /// Previous frame's matching, re-keyed by trace ids so it survives the
  /// frame-to-frame reshuffle of span indices (warm_start_da): (request
  /// id, taxi id) pairs sorted ascending, refilled in place every frame.
  std::vector<std::pair<trace::RequestId, trace::TaxiId>> last_match_;
};

struct SharingStableDispatcherOptions {
  SharingParams params;
  /// Extension beyond the paper (UberPool-style): after the stable
  /// matching over idle taxis, offer still-unserved requests to *busy*
  /// taxis by cheapest en-route insertion, accepting only insertions
  /// both sides would agree to -- the rider's along-route wait stays
  /// within the passenger threshold and every affected rider's detour
  /// within θ, and the driver's *marginal* score (added distance minus
  /// (α+1)× the new fare) stays within the taxi threshold.
  bool enroute_extension = false;
  /// Warm-start the stable matching from the previous dispatch call's
  /// assignments (DESIGN.md "Incremental frame engine"): every member of
  /// an assignment remembers its taxi id, and a re-packed unit inherits
  /// the hint only when all members agree. Output stays bit-identical;
  /// only the proposal count shrinks. Ignored on the serial fallback.
  bool warm_start_da = true;
};

/// Sharing stable dispatch (Algorithm 3).
class SharingStableDispatcher final : public sim::Dispatcher {
 public:
  SharingStableDispatcher(SharingStableDispatcherOptions options, FromConfig);

  std::string name() const override;
  std::vector<sim::DispatchAssignment> dispatch(const sim::DispatchContext& context) override;

 private:
  SharingStableDispatcherOptions options_;
  /// Previous frame's stable assignments by member request id, as sorted
  /// (request id, taxi id) pairs (warm_start_da); en-route insertions are
  /// deliberately excluded — they never came from the matching.
  std::vector<std::pair<trace::RequestId, trace::TaxiId>> last_match_;
};

}  // namespace o2o::core
