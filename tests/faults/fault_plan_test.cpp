// FaultPlan validation and preset registry. Mirrors the CLI death-test
// style of engine/cli_parse_test.cpp: malformed plans throw
// std::logic_error via MMR_EXPECTS, an unknown preset name throws
// std::invalid_argument listing the registered presets, and a bogus
// --faults flag exits(2) before any sweep runs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/campaign_cli.h"
#include "sim/faults.h"

namespace mmr::sim {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FaultPlan, DefaultPlanIsValidAndDisabled) {
  FaultPlan plan;
  EXPECT_NO_THROW(plan.validate());
  EXPECT_FALSE(plan.enabled());
}

TEST(FaultPlan, AnyNonZeroKnobEnables) {
  auto enabled_with = [](auto&& set) {
    FaultPlan plan;
    set(plan);
    return plan.enabled();
  };
  EXPECT_TRUE(enabled_with([](FaultPlan& p) { p.probe_drop_prob = 0.1; }));
  EXPECT_TRUE(enabled_with([](FaultPlan& p) { p.stale_epoch_prob = 0.1; }));
  EXPECT_TRUE(
      enabled_with([](FaultPlan& p) { p.csi_phase_noise_rad = 0.1; }));
  EXPECT_TRUE(enabled_with([](FaultPlan& p) { p.csi_amp_noise_db = 0.5; }));
  EXPECT_TRUE(enabled_with([](FaultPlan& p) { p.csi_quant_bits = 8; }));
  EXPECT_TRUE(enabled_with([](FaultPlan& p) { p.nan_tap_prob = 0.01; }));
  EXPECT_TRUE(enabled_with([](FaultPlan& p) { p.snr_bias_db = -1.0; }));
  // Seed and epoch length alone do not enable anything.
  EXPECT_FALSE(enabled_with([](FaultPlan& p) { p.seed = 5; }));
  EXPECT_FALSE(enabled_with([](FaultPlan& p) { p.stale_epoch_ticks = 9; }));
}

TEST(FaultPlanDeathTest, RejectsProbabilitiesOutsideUnitInterval) {
  auto validate_with = [](auto&& set) {
    FaultPlan plan;
    set(plan);
    plan.validate();
  };
  EXPECT_THROW(
      validate_with([](FaultPlan& p) { p.probe_drop_prob = -0.1; }),
      std::logic_error);
  EXPECT_THROW(validate_with([](FaultPlan& p) { p.probe_drop_prob = 1.5; }),
               std::logic_error);
  EXPECT_THROW(
      validate_with([](FaultPlan& p) { p.probe_drop_prob = kNan; }),
      std::logic_error);
  EXPECT_THROW(
      validate_with([](FaultPlan& p) { p.stale_epoch_prob = -1.0; }),
      std::logic_error);
  EXPECT_THROW(validate_with([](FaultPlan& p) { p.nan_tap_prob = 2.0; }),
               std::logic_error);
}

TEST(FaultPlanDeathTest, RejectsMalformedNoiseAndEpochKnobs) {
  auto validate_with = [](auto&& set) {
    FaultPlan plan;
    set(plan);
    plan.validate();
  };
  EXPECT_THROW(
      validate_with([](FaultPlan& p) { p.csi_phase_noise_rad = -0.2; }),
      std::logic_error);
  EXPECT_THROW(
      validate_with([](FaultPlan& p) { p.csi_phase_noise_rad = kInf; }),
      std::logic_error);
  EXPECT_THROW(
      validate_with([](FaultPlan& p) { p.csi_amp_noise_db = kNan; }),
      std::logic_error);
  EXPECT_THROW(validate_with([](FaultPlan& p) { p.stale_epoch_ticks = 0; }),
               std::logic_error);
  EXPECT_THROW(validate_with([](FaultPlan& p) { p.csi_quant_bits = 25; }),
               std::logic_error);
  EXPECT_THROW(validate_with([](FaultPlan& p) { p.snr_bias_db = kInf; }),
               std::logic_error);
}

TEST(FaultPlan, PresetsEscalateAndValidate) {
  const std::vector<std::string> names = fault_preset_names();
  ASSERT_EQ(names,
            (std::vector<std::string>{"none", "light", "moderate", "heavy"}));
  const FaultPlan none = fault_preset("none");
  EXPECT_FALSE(none.enabled());
  const FaultPlan light = fault_preset("light");
  const FaultPlan moderate = fault_preset("moderate");
  const FaultPlan heavy = fault_preset("heavy");
  for (const FaultPlan& p : {light, moderate, heavy}) {
    EXPECT_NO_THROW(p.validate());
    EXPECT_TRUE(p.enabled());
  }
  EXPECT_LT(light.probe_drop_prob, moderate.probe_drop_prob);
  EXPECT_LT(moderate.probe_drop_prob, heavy.probe_drop_prob);
  EXPECT_LT(light.nan_tap_prob, moderate.nan_tap_prob);
  EXPECT_LT(moderate.nan_tap_prob, heavy.nan_tap_prob);
  EXPECT_LT(light.csi_phase_noise_rad, heavy.csi_phase_noise_rad);
}

TEST(FaultPlan, UnknownPresetThrowsListingRegisteredNames) {
  try {
    fault_preset("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos);
    EXPECT_NE(msg.find("moderate"), std::string::npos);
  }
}

// --- CLI integration ----------------------------------------------------

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

int run_cli(std::vector<std::string> args) {
  auto argv = argv_of(args);
  sim::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  return 0;
}

TEST(FaultCli, ParsesAndAppliesPreset) {
  std::vector<std::string> args = {"prog", "--faults", "moderate"};
  auto argv = argv_of(args);
  const sim::SweepCliOptions opts =
      sim::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(opts.faults, "moderate");
  ExperimentSpec spec;
  sim::apply_cli(opts, spec);
  EXPECT_TRUE(spec.run.faults.enabled());
  EXPECT_EQ(spec.run.faults.probe_drop_prob,
            fault_preset("moderate").probe_drop_prob);
}

TEST(FaultCliDeathTest, UnknownPresetExits2) {
  EXPECT_EXIT(run_cli({"prog", "--faults", "bogus"}),
              ::testing::ExitedWithCode(2), "unknown fault preset");
}

TEST(FaultCliDeathTest, ListExits0AndMentionsFaultPresets) {
  EXPECT_EXIT(run_cli({"prog", "--list"}), ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace mmr::sim
