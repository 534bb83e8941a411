// Strict numeric parsing for the bench CLI (common/parse.h) and the
// campaign CLI flag handling itself (sim/campaign_cli.h). The old
// strtoull-based parsing accepted "abc" as 0 (= every hardware thread)
// and "12x" as 12; these pins make sure garbage exits with status 2
// instead of being silently truncated. A mutation sweep drives the
// numeric parsers with 10^5 Rng::fork-drawn truncations, bit flips and
// splices each and compares them with reference readers.
#include <gtest/gtest.h>

#include <cerrno>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/rng.h"
#include "dsp/backend.h"
#include "sim/campaign_cli.h"

namespace mmr {
namespace {

TEST(ParseU64, AcceptsFullBase10Integers) {
  std::uint64_t v = 99;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("42", v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseU64, RejectsGarbageAndLeavesOutputUntouched) {
  std::uint64_t v = 7;
  EXPECT_FALSE(parse_u64(nullptr, v));
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("abc", v));
  EXPECT_FALSE(parse_u64("12x", v));       // trailing garbage
  EXPECT_FALSE(parse_u64("-1", v));        // sign
  EXPECT_FALSE(parse_u64("+1", v));        // sign
  EXPECT_FALSE(parse_u64(" 1", v));        // leading whitespace
  EXPECT_FALSE(parse_u64("1 ", v));        // trailing whitespace
  EXPECT_FALSE(parse_u64("0x10", v));      // hex
  EXPECT_FALSE(parse_u64("1e3", v));       // float notation
  EXPECT_FALSE(parse_u64("18446744073709551616", v));  // uint64 overflow
  EXPECT_EQ(v, 7u) << "failed parse must not clobber the output";
}

TEST(ParseU64, ExactOverflowBoundary) {
  // UINT64_MAX parses, UINT64_MAX + 1 does not -- the boundary must be
  // exact, not "some large numbers fail".
  std::uint64_t v = 7;
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(parse_u64("18446744073709551614", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max() - 1);
  EXPECT_FALSE(parse_u64("18446744073709551616", v));
  EXPECT_FALSE(parse_u64("99999999999999999999", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max() - 1);
}

TEST(ParseU64, RejectsHexAndSignPrefixesEvenWithValidDigits) {
  std::uint64_t v = 7;
  EXPECT_FALSE(parse_u64("0xff", v));
  EXPECT_FALSE(parse_u64("0Xff", v));
  EXPECT_FALSE(parse_u64("+0", v));
  EXPECT_FALSE(parse_u64("++1", v));
  // But a plain leading zero is just base 10, not octal.
  EXPECT_TRUE(parse_u64("010", v));
  EXPECT_EQ(v, 10u);
}

TEST(ParseSize, TracksU64Semantics) {
  std::size_t v = 3;
  EXPECT_TRUE(parse_size("123", v));
  EXPECT_EQ(v, 123u);
  EXPECT_FALSE(parse_size("nope", v));
  EXPECT_EQ(v, 123u);
}

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

TEST(ParseF64, RejectsSignedAndHexFloatSpellings) {
  double v = 9.0;
  EXPECT_FALSE(parse_f64("+1.5", v));    // explicit sign
  EXPECT_FALSE(parse_f64("-1.5", v));
  EXPECT_FALSE(parse_f64("0x1p3", v));   // hex float
  EXPECT_FALSE(parse_f64("0x10", v));    // hex int spelling of 16.0
  EXPECT_FALSE(parse_f64("1.5.5", v));
  EXPECT_FALSE(parse_f64("1e", v));      // dangling exponent
  EXPECT_EQ(v, 9.0);
}

TEST(ParseF64, IsLocaleIndependent) {
  // A comma-decimal locale must not change what "1.5" (or "1,5") means.
  // The container may only ship the C locale; then there is nothing to
  // vary and the test skips.
  const char* comma_locale = nullptr;
  for (const char* name : {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8", "fr_FR",
                           "nl_NL.UTF-8"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      comma_locale = name;
      break;
    }
  }
  if (comma_locale == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  double v = 0.0;
  const bool dot_ok = parse_f64("1.5", v);
  const bool comma_ok = parse_f64("1,5", v);
  std::setlocale(LC_NUMERIC, "C");
  EXPECT_TRUE(dot_ok);
  EXPECT_EQ(v, 1.5);
  EXPECT_FALSE(comma_ok);
}

// --- mutation sweep of the numeric parsers -----------------------------

/// Mutated inputs per parser family.
constexpr std::size_t kMutatedInputs = 100000;

/// A prefix of `bytes` of uniformly drawn length (possibly empty).
std::string truncate(const std::string& bytes, Rng& rng) {
  return bytes.substr(0, rng.uniform_index(bytes.size() + 1));
}

/// `bytes` with 1-3 single-bit flips (`bytes` must be non-empty).
std::string flip_bits(const std::string& bytes, Rng& rng) {
  std::string out = bytes;
  const std::uint64_t flips = 1 + rng.uniform_index(3);
  for (std::uint64_t f = 0; f < flips; ++f) {
    const std::size_t at = rng.uniform_index(out.size());
    out[at] = static_cast<char>(out[at] ^ (1u << rng.uniform_index(8)));
  }
  return out;
}

/// The head of `a` joined to the tail of `b`, both cut at drawn offsets.
std::string splice(const std::string& a, const std::string& b, Rng& rng) {
  const std::size_t head = rng.uniform_index(a.size() + 1);
  const std::size_t tail = rng.uniform_index(b.size() + 1);
  return a.substr(0, head) + b.substr(tail);
}

/// A mutated copy of a corpus entry: truncated, bit-flipped, or spliced
/// with another entry, drawn from `rng`.
std::string mutate(const std::vector<std::string>& corpus, Rng& rng) {
  const std::string& base = corpus[rng.uniform_index(corpus.size())];
  switch (rng.uniform_index(3)) {
    case 0:
      return truncate(base, rng);
    case 1:
      return flip_bits(base, rng);
    default:
      return splice(base, corpus[rng.uniform_index(corpus.size())], rng);
  }
}

/// Reference reader of one base-10 size_t: digits only, no overflow.
std::optional<std::size_t> reference_size(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::size_t>(c - '0');
    if (value > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

std::string printable(const std::string& bytes) {
  std::string out;
  for (const char c : bytes) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f && c != '\\') {
      out += c;
    } else {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02x", u);
      out += hex;
    }
  }
  return out;
}

TEST(ReaderMutation, NumericParsersMatchTheirReferences) {
  const std::vector<std::string> integers = {
      "0", "7", "12345", "00042", "18446744073709551615",
      "18446744073709551616", "99999999999999999999"};
  const std::vector<std::string> reals = {
      "0",   "2.5",  ".5",  "1e3", "0.125", "1.7976931348623157e308",
      "1e400", "2.2250738585072014e-308", "123456789012345678901234567890",
      "5.", "0x1p3", "1E-3"};
  const Rng root(0x6e756d62ull);  // "numb"
  std::size_t accepted_f64 = 0;
  for (std::size_t i = 0; i < kMutatedInputs; ++i) {
    Rng rng = root.fork(i);
    const std::string text = mutate(integers, rng);
    // The readers take a C string: they see the input up to its first NUL.
    const std::string seen = text.substr(0, std::strlen(text.c_str()));
    const std::optional<std::size_t> want = reference_size(seen);
    std::uint64_t u64 = 0xdeadbeef;
    std::size_t size = 0xdeadbeef;
    const bool got_u64 = parse_u64(text.c_str(), u64);
    const bool got_size = parse_size(text.c_str(), size);
    ASSERT_EQ(got_u64, want.has_value()) << printable(text);
    ASSERT_EQ(got_size, want.has_value()) << printable(text);
    if (want) {
      ASSERT_EQ(u64, *want) << printable(text);
      ASSERT_EQ(size, *want) << printable(text);
    } else {
      ASSERT_EQ(u64, 0xdeadbeefu) << "a refused parse clobbered its output";
      ASSERT_EQ(size, 0xdeadbeefu) << "a refused parse clobbered its output";
    }
  }
  for (std::size_t i = 0; i < kMutatedInputs; ++i) {
    Rng rng = root.fork(kMutatedInputs + i);
    const std::string text = mutate(reals, rng);
    const char* c = text.c_str();
    double got = -1.0;
    const bool ok = parse_f64(c, got);
    // strtod reads the same decimal grammar plus signs, whitespace, hex,
    // inf and nan, which parse_f64 refuses by contract.
    errno = 0;
    char* end = nullptr;
    const double ref = std::strtod(c, &end);
    const bool ref_clean = *c != '\0' && *end == '\0' && errno == 0 &&
                           ((*c >= '0' && *c <= '9') || *c == '.') &&
                           std::strpbrk(c, "xXpP") == nullptr &&
                           std::isfinite(ref) && ref >= 0.0;
    if (ok) {
      ++accepted_f64;
      ASSERT_TRUE(std::isfinite(got) && got >= 0.0) << printable(text);
      ASSERT_EQ(*end, '\0') << "strtod stops early on " << printable(text);
      ASSERT_EQ(got, ref) << printable(text);
    } else {
      ASSERT_EQ(got, -1.0) << "a refused parse clobbered its output";
      ASSERT_FALSE(ref_clean) << "refused a plain decimal: "
                              << printable(text);
    }
  }
  EXPECT_GT(accepted_f64, 0u);
}

// --- campaign CLI flag handling ----------------------------------------

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

TEST(SweepCli, ParsesAllFlagsInBothForms) {
  std::vector<std::string> args = {"prog",       "--jobs",     "4",
                                   "--trials=9", "--seed",     "77",
                                   "--scenario", "outdoor",    "--controller=reactive",
                                   "--json-out", "/tmp/x.json"};
  auto argv = argv_of(args);
  const sim::SweepCliOptions opts =
      sim::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(opts.jobs, 4u);
  EXPECT_EQ(opts.trials, 9u);
  EXPECT_EQ(opts.seed, 77u);
  EXPECT_EQ(opts.scenario, "outdoor");
  EXPECT_EQ(opts.controller, "reactive");
  EXPECT_EQ(opts.json_out, "/tmp/x.json");
}

TEST(SweepCli, DefaultsWhenNoFlags) {
  std::vector<std::string> args = {"prog"};
  auto argv = argv_of(args);
  const sim::SweepCliOptions opts =
      sim::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(opts.jobs, 1u);
  EXPECT_EQ(opts.trials, 0u);
  EXPECT_EQ(opts.seed, 0u);
  EXPECT_TRUE(opts.scenario.empty());
  EXPECT_TRUE(opts.controller.empty());
  EXPECT_TRUE(opts.json_out.empty());
}

int run_cli(std::vector<std::string> args) {
  auto argv = argv_of(args);
  sim::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  return 0;
}

TEST(SweepCliDeathTest, GarbageJobsExits2) {
  EXPECT_EXIT(run_cli({"prog", "--jobs", "abc"}),
              ::testing::ExitedWithCode(2), "invalid value for --jobs");
}

TEST(SweepCliDeathTest, TrailingGarbageTrialsExits2) {
  EXPECT_EXIT(run_cli({"prog", "--trials=12x"}),
              ::testing::ExitedWithCode(2), "invalid value for --trials");
}

TEST(SweepCliDeathTest, NegativeSeedExits2) {
  EXPECT_EXIT(run_cli({"prog", "--seed", "-1"}),
              ::testing::ExitedWithCode(2), "invalid value for --seed");
}

TEST(SweepCliDeathTest, MissingValueExits2) {
  EXPECT_EXIT(run_cli({"prog", "--jobs"}), ::testing::ExitedWithCode(2),
              "unknown argument");
}

TEST(SweepCliDeathTest, UnknownFlagExits2) {
  EXPECT_EXIT(run_cli({"prog", "--frobnicate"}),
              ::testing::ExitedWithCode(2), "unknown argument");
  // Spellings of the retired durable and distributed campaigns fail
  // loudly too.
  EXPECT_EXIT(run_cli({"prog", "--resume", "x"}),
              ::testing::ExitedWithCode(2), "unknown argument: --resume");
  EXPECT_EXIT(run_cli({"prog", "--trial-retries", "1"}),
              ::testing::ExitedWithCode(2),
              "unknown argument: --trial-retries");
  EXPECT_EXIT(run_cli({"prog", "--shard", "0/2"}),
              ::testing::ExitedWithCode(2), "unknown argument: --shard");
  EXPECT_EXIT(run_cli({"prog", "--merge", "x"}),
              ::testing::ExitedWithCode(2), "unknown argument: --merge");
  // As do those of the retired multi-process fleet.
  EXPECT_EXIT(run_cli({"prog", "--shard-queue", "/tmp/q"}),
              ::testing::ExitedWithCode(2), "unknown argument: --shard-queue");
  EXPECT_EXIT(run_cli({"prog", "--shards", "3"}),
              ::testing::ExitedWithCode(2), "unknown argument: --shards");
  EXPECT_EXIT(run_cli({"prog", "--lease-ttl-s", "5"}),
              ::testing::ExitedWithCode(2), "unknown argument: --lease-ttl-s");
  EXPECT_EXIT(run_cli({"prog", "--watch"}),
              ::testing::ExitedWithCode(2), "unknown argument: --watch");
  // So does the retired trial watchdog.
  EXPECT_EXIT(run_cli({"prog", "--trial-timeout-s", "5"}),
              ::testing::ExitedWithCode(2),
              "unknown argument: --trial-timeout-s");
}

TEST(SweepCliDeathTest, ListExits0AndPrintsRegistries) {
  EXPECT_EXIT(run_cli({"prog", "--list"}), ::testing::ExitedWithCode(0),
              "");
}

// require_f64 is the strict reader behind the benches' real-valued
// flags (--duration-s, --cell-spacing-m, ...).
TEST(SweepCliDeathTest, GarbageF64ValueExits2) {
  EXPECT_EXIT((void)sim::require_f64("--duration-s", "fast", "prog"),
              ::testing::ExitedWithCode(2), "invalid value for --duration-s");
}

TEST(SweepCliDeathTest, NegativeF64ValueExits2) {
  EXPECT_EXIT((void)sim::require_f64("--duration-s", "-1", "prog"),
              ::testing::ExitedWithCode(2), "invalid value for --duration-s");
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

TEST(SweepCliDeathTest, UnwritableJsonOutExits2BeforeSweeping) {
  EXPECT_EXIT(campaign_to_unwritable_json(), ::testing::ExitedWithCode(2),
              "cannot open --json-out file");
}

// --kernel-backend: scalar/portable are compiled on every target, so
// forcing them must succeed and switch the process-global dispatch.
TEST(SweepCli, KernelBackendFlagAppliesEagerly) {
  const dsp::Backend before = dsp::active_backend();
  std::vector<std::string> args = {"prog", "--kernel-backend", "scalar"};
  auto argv = argv_of(args);
  const sim::SweepCliOptions opts =
      sim::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(opts.kernel_backend, "scalar");
  EXPECT_EQ(dsp::active_backend(), dsp::Backend::kScalar);
  dsp::set_backend(before);  // restore for the rest of the binary
}

TEST(SweepCli, KernelBackendAutoPicksBestBackend) {
  const dsp::Backend before = dsp::active_backend();
  std::vector<std::string> args = {"prog", "--kernel-backend=auto"};
  auto argv = argv_of(args);
  (void)sim::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(dsp::active_backend(), dsp::best_backend());
  dsp::set_backend(before);
}

TEST(SweepCliDeathTest, UnknownKernelBackendExits2) {
  EXPECT_EXIT(run_cli({"prog", "--kernel-backend", "sse9"}),
              ::testing::ExitedWithCode(2), "unknown --kernel-backend");
}

TEST(SweepCli, ApplyCliOverridesRegistryNamesAndJobs) {
  sim::SweepCliOptions opts;
  opts.jobs = 3;
  opts.scenario = "outdoor";
  opts.controller = "reactive";
  opts.freeze_timing = true;
  sim::ExperimentSpec spec;
  sim::apply_cli(opts, spec);
  EXPECT_EQ(spec.jobs, 3u);
  EXPECT_EQ(spec.scenario.name, "outdoor");
  EXPECT_EQ(spec.controller.name, "reactive");
  EXPECT_TRUE(spec.freeze_timing);

  // Empty overrides keep the bench's defaults.
  sim::SweepCliOptions defaults;
  sim::ExperimentSpec spec2;
  spec2.scenario.name = "indoor_sparse";
  spec2.controller.name = "beamspy";
  sim::apply_cli(defaults, spec2);
  EXPECT_EQ(spec2.scenario.name, "indoor_sparse");
  EXPECT_EQ(spec2.controller.name, "beamspy");
  EXPECT_FALSE(spec2.freeze_timing);
}

}  // namespace
}  // namespace mmr
