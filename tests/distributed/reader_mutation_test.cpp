// Mutation sweeps of the readers that take bytes from outside the
// process, next to the merge sweep in merge_mutation_test.cpp:
//   * ShardPlan::parse ("--shard i/N") and ShardPlan::parse_suffix (shard
//     journal file names) against a reference grammar;
//   * parse_u64 / parse_size / parse_f64 (every numeric flag) against a
//     reference digit loop and, for parse_f64, the C library's strtod;
//   * the resume path -- the CampaignJournal constructor -- on damaged
//     unsharded and sealed shard journals.
// Each reader gets at least 10^5 Rng::fork-drawn truncations, bit flips
// and splices. An input must parse, be refused (nullopt / false), or --
// the journal only -- throw a std::runtime_error (JournalMismatchError,
// IoError). A logic_error, a wrong value, a crash or a sanitizer report
// fails the sweep.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/rng.h"
#include "sim/journal.h"
#include "sim/shard.h"
#include "tests/distributed/mutation.h"

#ifdef __unix__
#include "common/fs_ops.h"
#endif

namespace mmr::sim {
namespace {

/// Mutated inputs per reader.
constexpr std::size_t kInputsPerReader = 100000;

/// A mutated copy of a corpus entry: truncated, bit-flipped, or spliced
/// with another entry, drawn from `rng`.
std::string mutate(const std::vector<std::string>& corpus, Rng& rng) {
  const std::string& base = corpus[rng.uniform_index(corpus.size())];
  switch (rng.uniform_index(3)) {
    case 0:
      return mutation::truncate(base, rng);
    case 1:
      return mutation::flip_bits(base, rng);
    default:
      return mutation::splice(base, corpus[rng.uniform_index(corpus.size())],
                              rng);
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

/// Reference reader of "<i><sep><N>" with i < N.
std::optional<ShardPlan> reference_plan(const std::string& text,
                                        const std::string& sep) {
  const std::size_t at = text.find(sep);
  if (at == std::string::npos) return std::nullopt;
  const auto index = reference_size(text.substr(0, at));
  const auto count = reference_size(text.substr(at + sep.size()));
  if (!index || !count || *index >= *count) return std::nullopt;
  return ShardPlan{*index, *count};
}

std::optional<ShardPlan> reference_suffix(const std::string& name) {
  const std::string prefix = "shard-";
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  return reference_plan(name.substr(prefix.size()), "-of-");
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

TEST(ReaderMutation, ShardPlanParsersAcceptExactlyTheGrammar) {
  const std::vector<std::string> plans = {
      "0/1",   "0/3",  "2/3",   "17/64", "007/9",
      "0/18446744073709551615", "18446744073709551614/18446744073709551615",
      "3/3",   "1/0",  "/3",    "1/"};
  const std::vector<std::string> suffixes = {
      "shard-0-of-1", "shard-2-of-3", "shard-17-of-64", "shard-3-of-3",
      "shard-1-of-2-of-3", "shard-01-of-10"};
  const Rng root(0x7368617264ull);  // "shard"
  for (std::size_t i = 0; i < kInputsPerReader; ++i) {
    Rng rng = root.fork(i);
    const std::string text = mutate(plans, rng);
    const std::optional<ShardPlan> got = ShardPlan::parse(text);
    const std::optional<ShardPlan> want = reference_plan(text, "/");
    ASSERT_EQ(got, want) << "parse(\"" << printable(text) << "\")";
  }
  for (std::size_t i = 0; i < kInputsPerReader; ++i) {
    Rng rng = root.fork(kInputsPerReader + i);
    const std::string name = mutate(suffixes, rng);
    const std::optional<ShardPlan> got = ShardPlan::parse_suffix(name);
    ASSERT_EQ(got, reference_suffix(name))
        << "parse_suffix(\"" << printable(name) << "\")";
    if (got) {
      ASSERT_EQ(ShardPlan::parse_suffix(got->suffix()), got);
    }
  }
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
  for (std::size_t i = 0; i < kInputsPerReader; ++i) {
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
  for (std::size_t i = 0; i < kInputsPerReader; ++i) {
    Rng rng = root.fork(kInputsPerReader + i);
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

constexpr std::size_t kTrials = 6;

CampaignKey resume_key() {
  CampaignKey key;
  key.name = "resume_mutation_demo";
  key.base_seed = 11;
  key.trials = kTrials;
  key.seed_policy = SeedPolicy::kPerTrialStream;
  key.fingerprint = 0xfedcba9876543210ull;
  return key;
}

#ifdef __unix__
int skip_fsync(int) { return 0; }
#endif

class ResumeMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // On a tmpfs when there is one: a repair renames over the damaged
    // file, which ext4 turns into a data flush, and 10^5 of those take
    // seconds of system time.
    std::string tmpl = std::filesystem::is_directory("/dev/shm")
                           ? "/dev/shm/mmr_resumemut_XXXXXX"
                           : "/tmp/mmr_resumemut_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    // An unsharded journal that stopped after five trials, and a sealed
    // shard journal: the two shapes --resume reopens.
    const std::string plain = dir_ + "/plain.journal";
    {
      CampaignJournal journal(plain, key_);
      for (std::size_t t = 0; t + 1 < kTrials; ++t) {
        journal.record(mutation::journal_trial(t));
      }
    }
    const std::string shard = dir_ + "/shard.journal";
    {
      CampaignJournal journal(shard, key_, shards_[1]);
      for (std::size_t t = 0; t < kTrials; ++t) {
        if (shards_[1].owns(t)) journal.record(mutation::journal_trial(t));
      }
      journal.seal();
    }
    originals_ = {mutation::read_all(plain), mutation::read_all(shard)};
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }

  /// Resume from `bytes` as `plan`'s journal. Returns "" when the resume
  /// path behaved -- opened, and a second open reads back the same
  /// completed trials, or threw std::runtime_error -- else what went
  /// wrong; `opened` tells which.
  std::string check(const std::string& bytes, const ShardPlan& plan,
                    bool& opened) {
    opened = false;
    // A fresh file per input: rewriting one in place makes some
    // filesystems flush it, which costs far more than the parse.
    const std::string path = dir_ + "/in" + std::to_string(next_++);
    mutation::write_all(path, bytes);
    struct Cleanup {
      std::string path;
      ~Cleanup() { (void)std::remove(path.c_str()); }
    } cleanup{path};
    try {
      std::vector<std::size_t> first;
      {
        CampaignJournal journal(path, key_, plan);
        for (const auto& [index, trial] : journal.completed()) {
          if (index != trial.index || index >= kTrials || !plan.owns(index)) {
            return "loaded a trial the campaign cannot hold";
          }
          first.push_back(index);
        }
      }
      CampaignJournal again(path, key_, plan);
      std::vector<std::size_t> second;
      for (const auto& entry : again.completed()) {
        second.push_back(entry.first);
      }
      if (second != first) return "a reopened journal lost or gained trials";
      opened = true;
      return "";
    } catch (const std::runtime_error&) {
      return "";
    } catch (const std::exception& e) {
      return std::string("threw a non-runtime_error: ") + e.what();
    }
  }

  CampaignKey key_ = resume_key();
  const ShardPlan shards_[2] = {ShardPlan{}, ShardPlan{0, 2}};
  std::string dir_;
  std::vector<std::string> originals_;
  std::size_t next_ = 0;
};

TEST_F(ResumeMutationTest, EveryDamagedJournalOpensOrThrowsATypedError) {
#ifdef __unix__
  // The sweep is about parsing and validation, not durability: skip the
  // fsyncs of each repair's atomic rewrite.
  fsio::OpsTable no_fsync = *fsio::real_ops();
  no_fsync.fsync_fn = &skip_fsync;
  fsio::ScopedOps ops(&no_fsync);
#endif
  const Rng root(0x726573756d65ull);  // "resume"
  const char* kinds[] = {"truncation", "bit flip", "spliced line",
                         "duplicated line"};
  std::size_t opened_count = 0;
  for (std::size_t i = 0; i < kInputsPerReader; ++i) {
    Rng rng = root.fork(i);
    const std::size_t which = rng.uniform_index(2);
    const std::string& original = originals_[which];
    const std::size_t kind = rng.uniform_index(4);
    std::string bytes;
    switch (kind) {
      case 0:
        bytes = mutation::truncate(original, rng);
        break;
      case 1:
        bytes = mutation::flip_bits(original, rng);
        break;
      case 2:
        bytes = mutation::splice_lines(original, originals_[1 - which], rng);
        break;
      default:
        bytes = mutation::duplicate_line(original, rng);
        break;
    }
    bool opened = false;
    const std::string failure = check(bytes, shards_[which], opened);
    ASSERT_EQ(failure, "") << kinds[kind] << " case " << i << " of the "
                           << (which == 0 ? "plain" : "shard") << " journal";
    if (opened) ++opened_count;
  }
  // Both outcomes occur: a torn tail or a lost seal still resumes, and
  // the rest is refused.
  EXPECT_GT(opened_count, 0u);
  EXPECT_LT(opened_count, kInputsPerReader);
}

}  // namespace
}  // namespace mmr::sim
