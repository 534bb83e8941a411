// The durability-facing flags of the bench CLI: --json-out (written
// atomically through AtomicFile) and --freeze-timing (zeroes every
// timing field so two runs' outputs compare byte for byte).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/campaign_cli.h"

namespace mmr {
namespace {

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

TEST(SweepCliDurability, ParsesTheDurabilityFlags) {
  std::vector<std::string> args = {"prog", "--json-out=/tmp/out.json",
                                   "--freeze-timing"};
  auto argv = argv_of(args);
  const sim::SweepCliOptions opts =
      sim::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(opts.json_out, "/tmp/out.json");
  EXPECT_TRUE(opts.freeze_timing);
}

TEST(SweepCliDurability, DurabilityDefaultsAreOff) {
  std::vector<std::string> args = {"prog"};
  auto argv = argv_of(args);
  const sim::SweepCliOptions opts =
      sim::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(opts.json_out.empty());
  EXPECT_FALSE(opts.freeze_timing);
}

}  // namespace
}  // namespace mmr
