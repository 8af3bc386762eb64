// DispatchConfig: defaults must mirror the legacy option structs, the
// fluent setters must land in the right sub-struct, validate() must
// return typed errors, and the factories must build the four stable
// dispatchers with the side pinned by name.
#include "core/dispatch_config.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

namespace o2o {
namespace {

bool has_error(const std::vector<ConfigError>& errors, ConfigField field) {
  return std::any_of(errors.begin(), errors.end(),
                     [field](const ConfigError& e) { return e.field == field; });
}

TEST(DispatchConfig, DefaultsMatchLegacyStructs) {
  const DispatchConfig config;
  const core::StableDispatcherOptions legacy_stable;
  const core::SharingStableDispatcherOptions legacy_sharing;

  const core::StableDispatcherOptions stable = config.stable_options();
  EXPECT_EQ(stable.preference.alpha, legacy_stable.preference.alpha);
  EXPECT_EQ(stable.preference.beta, legacy_stable.preference.beta);
  EXPECT_EQ(stable.preference.passenger_threshold_km,
            legacy_stable.preference.passenger_threshold_km);
  EXPECT_EQ(stable.preference.taxi_threshold_score,
            legacy_stable.preference.taxi_threshold_score);
  EXPECT_EQ(stable.preference.list_cap, legacy_stable.preference.list_cap);
  EXPECT_EQ(stable.side, legacy_stable.side);

  const core::SharingStableDispatcherOptions sharing = config.sharing_options();
  EXPECT_EQ(sharing.enroute_extension, legacy_sharing.enroute_extension);
  EXPECT_EQ(sharing.params.grouping.detour_threshold_km,
            legacy_sharing.params.grouping.detour_threshold_km);
  EXPECT_EQ(sharing.params.grouping.max_group_size,
            legacy_sharing.params.grouping.max_group_size);
  EXPECT_EQ(sharing.params.packing, legacy_sharing.params.packing);
  EXPECT_EQ(sharing.params.objective, legacy_sharing.params.objective);
  EXPECT_EQ(sharing.params.taxi_seats, legacy_sharing.params.taxi_seats);
  EXPECT_EQ(sharing.params.exact_max_sets, legacy_sharing.params.exact_max_sets);

  EXPECT_FALSE(config.trace().enabled);
  EXPECT_TRUE(config.validate().empty());
}

TEST(DispatchConfig, FluentSettersReachEverySubStruct) {
  const DispatchConfig config = DispatchConfig{}
                                    .with_alpha(2.0)
                                    .with_beta(0.5)
                                    .with_passenger_threshold_km(7.5)
                                    .with_taxi_threshold_score(3.0)
                                    .with_list_cap(16)
                                    .with_proposal_side(core::ProposalSide::kTaxis)
                                    .with_detour_threshold_km(4.0)
                                    .with_max_group_size(2)
                                    .with_pickup_radius_km(9.0)
                                    .with_require_saving(false)
                                    .with_parallel_dispatch(false)
                                    .with_packing_solver(core::PackingSolver::kGreedy)
                                    .with_packing_objective(core::PackingObjective::kRiders)
                                    .with_taxi_seats(6)
                                    .with_candidate_taxis_per_unit(12)
                                    .with_exact_max_sets(500)
                                    .with_enroute_extension(true)
                                    .with_tracing(true);

  EXPECT_EQ(config.preference().alpha, 2.0);
  EXPECT_EQ(config.preference().beta, 0.5);
  EXPECT_EQ(config.preference().passenger_threshold_km, 7.5);
  EXPECT_EQ(config.preference().taxi_threshold_score, 3.0);
  EXPECT_EQ(config.preference().list_cap, 16u);
  EXPECT_EQ(config.proposal_side(), core::ProposalSide::kTaxis);
  EXPECT_EQ(config.grouping().detour_threshold_km, 4.0);
  EXPECT_EQ(config.grouping().max_group_size, 2);
  EXPECT_EQ(config.grouping().pickup_radius_km, 9.0);
  EXPECT_FALSE(config.grouping().require_saving);
  EXPECT_FALSE(config.sharding().parallel);
  EXPECT_EQ(config.sharing_params().packing, core::PackingSolver::kGreedy);
  EXPECT_EQ(config.sharing_params().objective, core::PackingObjective::kRiders);
  EXPECT_EQ(config.sharing_params().taxi_seats, 6);
  EXPECT_EQ(config.sharing_params().candidate_taxis_per_unit, 12u);
  EXPECT_EQ(config.sharing_params().exact_max_sets, 500u);
  EXPECT_TRUE(config.enroute_extension());
  EXPECT_TRUE(config.trace().enabled);
  EXPECT_TRUE(config.validate().empty());

  // Projections carry the same values to the legacy structs.
  EXPECT_EQ(config.stable_options().side, core::ProposalSide::kTaxis);
  EXPECT_TRUE(config.sharing_options().enroute_extension);
}

TEST(DispatchConfig, ValidateFlagsBadFieldsWithTypedErrors) {
  const auto errors = DispatchConfig{}
                          .with_alpha(-1.0)
                          .with_beta(std::numeric_limits<double>::quiet_NaN())
                          .with_passenger_threshold_km(0.0)
                          .with_detour_threshold_km(-2.0)
                          .with_max_group_size(0)
                          .with_pickup_radius_km(-1.0)
                          .with_taxi_seats(0)
                          .validate();
  EXPECT_TRUE(has_error(errors, ConfigField::kAlpha));
  EXPECT_TRUE(has_error(errors, ConfigField::kBeta));
  EXPECT_TRUE(has_error(errors, ConfigField::kPassengerThresholdKm));
  EXPECT_TRUE(has_error(errors, ConfigField::kDetourThresholdKm));
  EXPECT_TRUE(has_error(errors, ConfigField::kMaxGroupSize));
  EXPECT_TRUE(has_error(errors, ConfigField::kPickupRadiusKm));
  EXPECT_TRUE(has_error(errors, ConfigField::kTaxiSeats));
  for (const ConfigError& error : errors) {
    EXPECT_FALSE(error.message.empty());
    EXPECT_NE(config_field_name(error.field), "unknown");
  }

  // The enumeration engine pools pairs and triples only: sizes outside
  // [2, 3] are rejected up front, even with seats to spare, instead of
  // aborting on the first frame (1, 5) or silently capping at triples (4).
  for (const int size : {1, 4, 5}) {
    const auto group_errors =
        DispatchConfig{}.with_taxi_seats(8).with_max_group_size(size).validate();
    EXPECT_TRUE(has_error(group_errors, ConfigField::kMaxGroupSize)) << size;
  }
  for (const int size : {2, 3}) {
    EXPECT_TRUE(DispatchConfig{}.with_max_group_size(size).validate().empty()) << size;
  }
}

TEST(DispatchConfig, ValidateCrossFieldRules) {
  EXPECT_TRUE(has_error(
      DispatchConfig{}.with_taxi_seats(2).with_max_group_size(3).validate(),
      ConfigField::kTaxiSeats));
  // A group's seat sum (at most max_group_size orders of at most
  // taxi_seats seats each) must fit in int.
  constexpr int kIntMax = std::numeric_limits<int>::max();
  for (const int size : {2, 3}) {
    EXPECT_TRUE(DispatchConfig{}
                    .with_taxi_seats(kIntMax / size)
                    .with_max_group_size(size)
                    .validate()
                    .empty())
        << size;
    EXPECT_TRUE(has_error(
        DispatchConfig{}.with_taxi_seats(kIntMax / size + 1).with_max_group_size(size).validate(),
        ConfigField::kTaxiSeats))
        << size;
  }
  EXPECT_TRUE(has_error(DispatchConfig{}.with_taxi_seats(kIntMax).validate(),
                        ConfigField::kTaxiSeats));
  EXPECT_TRUE(has_error(DispatchConfig{}
                            .with_packing_solver(core::PackingSolver::kExact)
                            .with_exact_max_sets(0)
                            .validate(),
                        ConfigField::kExactMaxSets));
  EXPECT_TRUE(has_error(
      DispatchConfig{}
          .with_tracing(obs::TraceOptions{.enabled = true, .per_frame = true, .max_frames = 0})
          .validate(),
      ConfigField::kTraceMaxFrames));
  // +inf thresholds stay legal ("no cut-off" is the documented default).
  EXPECT_TRUE(DispatchConfig{}
                  .with_passenger_threshold_km(std::numeric_limits<double>::infinity())
                  .with_pickup_radius_km(std::numeric_limits<double>::infinity())
                  .validate()
                  .empty());
}

TEST(DispatchConfig, CandidateTaxisPerUnitRejectsNegativeCastSentinel) {
  // A negative int cast to size_t lands far past 2^32-1; validate()
  // flags it instead of silently treating it as "huge cap".
  EXPECT_TRUE(has_error(DispatchConfig{}
                            .with_candidate_taxis_per_unit(
                                static_cast<std::size_t>(static_cast<long long>(-1)))
                            .validate(),
                        ConfigField::kCandidateTaxisPerUnit));
  // 0 is the documented uncapped sentinel; plain caps stay legal.
  EXPECT_TRUE(DispatchConfig{}.with_candidate_taxis_per_unit(0).validate().empty());
  EXPECT_TRUE(DispatchConfig{}.with_candidate_taxis_per_unit(64).validate().empty());
}

TEST(DispatchConfig, FieldNamesAreStable) {
  EXPECT_EQ(config_field_name(ConfigField::kAlpha), "alpha");
  EXPECT_EQ(config_field_name(ConfigField::kTraceMaxFrames), "trace_max_frames");
}

TEST(DispatchConfigFactories, FourDispatchersWithPinnedSides) {
  const DispatchConfig config;  // side left at default (passengers)
  EXPECT_EQ(make_nstd_p(config)->name(), "NSTD-P");
  EXPECT_EQ(make_nstd_t(config)->name(), "NSTD-T");
  EXPECT_EQ(make_std_p(config)->name(), "STD-P");
  EXPECT_EQ(make_std_t(config)->name(), "STD-T");

  // The factory pins the side even when the config says otherwise.
  const DispatchConfig taxis = DispatchConfig{}.with_proposal_side(core::ProposalSide::kTaxis);
  EXPECT_EQ(make_nstd_p(taxis)->name(), "NSTD-P");
  EXPECT_EQ(make_std_p(taxis)->name(), "STD-P");

  // The en-route extension shows up in the sharing dispatcher's name.
  EXPECT_EQ(make_std_p(DispatchConfig{}.with_enroute_extension(true))->name(), "STD-P+");
}

TEST(DispatchConfig, ServiceKnobsValidate) {
  EXPECT_TRUE(DispatchConfig{}.with_pipeline_depth(1).validate().empty());
  EXPECT_TRUE(DispatchConfig{}.with_pipeline_depth(1024).validate().empty());
  EXPECT_FALSE(DispatchConfig{}.with_pipeline_depth(0).validate().empty());
  EXPECT_FALSE(DispatchConfig{}.with_pipeline_depth(1025).validate().empty());

  // Capacity is a per-frame event bound: any count in [1, 2^20] is valid.
  EXPECT_TRUE(DispatchConfig{}.validate().empty());
  EXPECT_TRUE(DispatchConfig{}.with_ingest_capacity(1).validate().empty());
  EXPECT_TRUE(DispatchConfig{}.with_ingest_capacity(3).validate().empty());
  EXPECT_TRUE(DispatchConfig{}.with_ingest_capacity(1000).validate().empty());
  EXPECT_TRUE(DispatchConfig{}.with_ingest_capacity(1u << 20).validate().empty());
  EXPECT_FALSE(DispatchConfig{}.with_ingest_capacity(0).validate().empty());
  EXPECT_FALSE(DispatchConfig{}.with_ingest_capacity((1u << 20) + 1).validate().empty());
}

TEST(DispatchConfig, DescribeIsAStableCompleteSnapshot) {
  const auto described = DispatchConfig{}.describe();
  ASSERT_FALSE(described.empty());
  EXPECT_EQ(described.front().first, "alpha");

  std::set<std::string> keys;
  for (const auto& [key, value] : described) {
    EXPECT_TRUE(keys.insert(key).second) << "duplicate key " << key;
    EXPECT_FALSE(value.empty()) << key;
  }
  for (const char* expected :
       {"passenger_threshold_km", "detour_threshold_km", "packing_solver",
        "frame_seconds", "road_network", "trace_enabled",
        "pipeline_depth", "ingest_capacity"}) {
    EXPECT_TRUE(keys.count(expected) != 0) << expected;
  }

  // Two identical configs describe identically; order included.
  EXPECT_EQ(described, DispatchConfig{}.describe());
}

TEST(DispatchConfig, DescribeReflectsTheConfiguredValues) {
  const auto described = DispatchConfig{}
                             .with_passenger_threshold_km(7.5)
                             .with_packing_solver(core::PackingSolver::kGreedy)
                             .with_pipeline_depth(8)
                             .with_ingest_capacity(256)
                             .describe();
  const auto value_of = [&described](std::string_view key) -> std::string {
    for (const auto& [k, v] : described) {
      if (k == key) return v;
    }
    return "<missing>";
  };
  EXPECT_EQ(value_of("passenger_threshold_km"), "7.5");
  EXPECT_EQ(value_of("packing_solver"), "greedy");
  EXPECT_EQ(value_of("pipeline_depth"), "8");
  EXPECT_EQ(value_of("ingest_capacity"), "256");
  EXPECT_EQ(value_of("road_network"), "none");
}

TEST(DispatchConfigFactories, NameBasedLookup) {
  EXPECT_EQ(make_dispatcher("nstd-p")->name(), "NSTD-P");
  EXPECT_EQ(make_dispatcher("NSTD_T")->name(), "NSTD-T");
  EXPECT_EQ(make_dispatcher("Std-P")->name(), "STD-P");
  EXPECT_EQ(make_dispatcher("std_t")->name(), "STD-T");
  EXPECT_EQ(make_dispatcher("greedy"), nullptr);
  EXPECT_EQ(make_dispatcher(""), nullptr);
}

}  // namespace
}  // namespace o2o
