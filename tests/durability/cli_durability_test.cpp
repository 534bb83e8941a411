// The durability-facing half of the bench CLI: strict parse_f64 and
// require_f64, the --resume / --trial-retries / --freeze-timing flags,
// and the exit(2) error paths the flags add.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parse.h"
#include "sim/campaign_cli.h"
#include "sim/engine.h"

namespace mmr {
namespace {

TEST(ParseF64, AcceptsPlainNonNegativeDecimals) {
  double v = -1.0;
  EXPECT_TRUE(parse_f64("0", v));
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(parse_f64("2.5", v));
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(parse_f64("0.125", v));
  EXPECT_EQ(v, 0.125);
  EXPECT_TRUE(parse_f64(".5", v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(parse_f64("1e3", v));
  EXPECT_EQ(v, 1000.0);
}

TEST(ParseF64, RejectsGarbageSignsAndNonFinites) {
  double v = 7.0;
  EXPECT_FALSE(parse_f64(nullptr, v));
  EXPECT_FALSE(parse_f64("", v));
  EXPECT_FALSE(parse_f64("abc", v));
  EXPECT_FALSE(parse_f64("1.5x", v));   // trailing garbage
  EXPECT_FALSE(parse_f64("-1.5", v));   // negative
  EXPECT_FALSE(parse_f64("+1.5", v));   // sign
  EXPECT_FALSE(parse_f64(" 1.5", v));   // leading whitespace
  EXPECT_FALSE(parse_f64("inf", v));
  EXPECT_FALSE(parse_f64("nan", v));
  EXPECT_FALSE(parse_f64("0x10", v));   // hex floats
  EXPECT_FALSE(parse_f64("1e400", v));  // overflow
  EXPECT_EQ(v, 7.0) << "failed parse must not clobber the output";
}

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

TEST(SweepCliDurability, ParsesTheDurabilityFlags) {
  std::vector<std::string> args = {
      "prog", "--resume", "/tmp/ckpt", "--trial-retries=2",
      "--freeze-timing"};
  auto argv = argv_of(args);
  const sim::SweepCliOptions opts =
      sim::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(opts.resume, "/tmp/ckpt");
  EXPECT_EQ(opts.trial_retries, 2u);
  EXPECT_TRUE(opts.freeze_timing);
}

TEST(SweepCliDurability, DurabilityDefaultsAreOff) {
  std::vector<std::string> args = {"prog"};
  auto argv = argv_of(args);
  const sim::SweepCliOptions opts =
      sim::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(opts.resume.empty());
  EXPECT_EQ(opts.trial_retries, 0u);
  EXPECT_FALSE(opts.freeze_timing);
}

TEST(SweepCliDurability, JournalPathIsPerCampaignAndSanitized) {
  EXPECT_EQ(sim::journal_path("/tmp/ckpt", "fig16_blockage"),
            "/tmp/ckpt.fig16_blockage.journal");
  EXPECT_EQ(sim::journal_path("base", "weird name/with:stuff"),
            "base.weird_name_with_stuff.journal");
}

int run_cli(std::vector<std::string> args) {
  auto argv = argv_of(args);
  sim::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  return 0;
}

// require_f64 is the strict reader behind the benches' real-valued
// flags (--duration-s, --cell-spacing-m, ...).
TEST(SweepCliDurabilityDeathTest, GarbageF64ValueExits2) {
  EXPECT_EXIT((void)sim::require_f64("--duration-s", "fast", "prog"),
              ::testing::ExitedWithCode(2), "invalid value for --duration-s");
}

TEST(SweepCliDurabilityDeathTest, NegativeF64ValueExits2) {
  EXPECT_EXIT((void)sim::require_f64("--duration-s", "-1", "prog"),
              ::testing::ExitedWithCode(2), "invalid value for --duration-s");
}

TEST(SweepCliDurabilityDeathTest, GarbageRetriesExits2) {
  EXPECT_EXIT(run_cli({"prog", "--trial-retries", "lots"}),
              ::testing::ExitedWithCode(2),
              "invalid value for --trial-retries");
}

TEST(SweepCliDurabilityDeathTest, EmptyResumeBaseExits2) {
  EXPECT_EXIT(run_cli({"prog", "--resume="}), ::testing::ExitedWithCode(2),
              "--resume needs a journal base path");
}

int resume_sampled_campaign() {
  sim::ExperimentSpec spec;
  spec.name = "sampled";
  spec.scenario.name = "indoor";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.05;
  spec.record_samples = true;  // journals cannot replay per-tick samples
  sim::SweepCliOptions opts;
  opts.resume = "/tmp/mmr_cli_durability_ckpt";
  (void)sim::run_campaign(spec, opts);
  return 0;
}

TEST(SweepCliDurabilityDeathTest, ResumeWithRecordedSamplesExits2) {
  EXPECT_EXIT(resume_sampled_campaign(), ::testing::ExitedWithCode(2),
              "--resume is not supported for campaign 'sampled'");
}

int campaign_to_unwritable_json() {
  sim::ExperimentSpec spec;
  spec.name = "unwritable";
  spec.scenario.name = "indoor";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.05;
  sim::SweepCliOptions opts;
  opts.json_out = "/no/such/dir/out.json";
  (void)sim::run_campaign(spec, opts);
  return 0;
}

TEST(SweepCliDurabilityDeathTest, UnwritableJsonOutExits2BeforeSweeping) {
  EXPECT_EXIT(campaign_to_unwritable_json(), ::testing::ExitedWithCode(2),
              "cannot open --json-out file");
}

}  // namespace
}  // namespace mmr
