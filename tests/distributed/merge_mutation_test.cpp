// Mutation sweep of the one reader of bytes another process wrote: the
// shard merge. A sealed 2-shard campaign's journals are damaged every
// way a copy between machines can damage them -- truncated at every byte
// offset, plus Rng::fork-drawn bit flips, duplicated lines and lines
// spliced together -- and merge_journals must either merge (into a
// journal that reads back cleanly) or throw a std::runtime_error
// (JournalMismatchError, IoError). Anything else -- a logic_error from a
// parser, a crash, a sanitizer report -- fails the sweep.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/journal.h"
#include "sim/shard.h"
#include "tests/distributed/mutation.h"

#ifdef __unix__
#include "common/fs_ops.h"
#endif

namespace mmr::sim {
namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kTrials = 6;
/// Random mutations per kind (bit flips, duplicated lines, splices).
constexpr std::size_t kCasesPerKind = 3400;

CampaignKey mutation_key() {
  CampaignKey key;
  key.name = "merge_mutation_demo";
  key.base_seed = 7;
  key.trials = kTrials;
  key.seed_policy = SeedPolicy::kPerTrialStream;
  key.fingerprint = 0x0123456789abcdefull;
  return key;
}

#ifdef __unix__
int skip_fsync(int) { return 0; }
#endif

class MergeMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mmr_mergemut_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    for (std::size_t i = 0; i < kShards; ++i) {
      const ShardPlan plan{i, kShards};
      paths_.push_back(shard_journal_path(dir_ + "/base", key_.name, plan));
      CampaignJournal journal(paths_.back(), key_, plan);
      for (std::size_t t = 0; t < kTrials; ++t) {
        if (plan.owns(t)) journal.record(mutation::journal_trial(t));
      }
      journal.seal();
    }
    for (const std::string& path : paths_) {
      originals_.push_back(mutation::read_all(path));
    }
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }

  /// Merge the intact journal set with shard `shard` replaced by `bytes`.
  /// Returns "" when the merge behaved (merged into a journal that reads
  /// back cleanly, or threw std::runtime_error), else what went wrong;
  /// `merged` tells which of the two it did.
  std::string check(std::size_t shard, const std::string& bytes,
                    bool& merged) {
    merged = false;
    const std::string mutated = dir_ + "/mutated.journal";
    mutation::write_all(mutated, bytes);
    std::vector<std::string> set = paths_;
    set[shard] = mutated;
    const std::string merged_path = dir_ + "/merged.journal";
    // Each input gets fresh files: replacing an existing file (truncate or
    // rename over it) makes some filesystems flush it, which would cost
    // far more than the merge.
    struct Cleanup {
      std::vector<std::string> paths;
      ~Cleanup() {
        for (const std::string& p : paths) (void)std::remove(p.c_str());
      }
    } cleanup{{mutated, merged_path}};
    try {
      const MergeStats stats = merge_journals(set, merged_path, key_);
      const LoadedJournal back = read_journal_file(merged_path);
      if (back.shard.enabled() || back.seal.has_value() || back.torn_tail ||
          back.trials.size() != stats.merged_trials) {
        return "merged journal does not read back as a clean unsharded "
               "journal";
      }
      merged = true;
      return "";
    } catch (const std::runtime_error&) {
      return "";
    } catch (const std::exception& e) {
      return std::string("threw a non-runtime_error: ") + e.what();
    }
  }

  CampaignKey key_ = mutation_key();
  std::string dir_;
  std::vector<std::string> paths_;
  std::vector<std::string> originals_;
};

TEST_F(MergeMutationTest, EveryInputMergesOrThrowsATypedError) {
#ifdef __unix__
  // The sweep is about parsing and validation, not durability: skip the
  // fsyncs of each merge's atomic write so 10^4 merges stay cheap.
  fsio::OpsTable no_fsync = *fsio::real_ops();
  no_fsync.fsync_fn = &skip_fsync;
  fsio::ScopedOps ops(&no_fsync);
#endif
  // The undamaged set merges every trial from sealed shards.
  const MergeStats intact =
      merge_journals(paths_, dir_ + "/intact.journal", key_);
  ASSERT_EQ(intact.merged_trials, kTrials);
  ASSERT_EQ(intact.sealed_shards, kShards);

  std::size_t inputs = 0;
  std::size_t merges = 0;
  const auto run = [&](std::size_t shard, const std::string& bytes,
                       const std::string& what) {
    ++inputs;
    bool merged = false;
    const std::string failure = check(shard, bytes, merged);
    ASSERT_EQ(failure, "") << what;
    if (merged) ++merges;
  };

  // Truncation of either shard journal at every byte offset.
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    const std::string& original = originals_[shard];
    for (std::size_t len = 0; len < original.size(); ++len) {
      run(shard, original.substr(0, len),
          "shard " + std::to_string(shard) + " truncated to " +
              std::to_string(len) + " bytes");
      if (HasFatalFailure()) return;
    }
  }

  const Rng root(0x6d65726765ull);  // "merge"
  const char* kinds[] = {"bit flip", "duplicated line", "spliced line"};
  for (std::size_t kind = 0; kind < 3; ++kind) {
    for (std::size_t i = 0; i < kCasesPerKind; ++i) {
      Rng rng = root.fork(kind * kCasesPerKind + i);
      const std::size_t shard = rng.uniform_index(kShards);
      const std::string& original = originals_[shard];
      std::string bytes;
      switch (kind) {
        case 0:
          bytes = mutation::flip_bits(original, rng);
          break;
        case 1:
          bytes = mutation::duplicate_line(original, rng);
          break;
        default:
          bytes = mutation::splice_lines(original, originals_[1 - shard],
                                         rng);
          break;
      }
      run(shard, bytes,
          std::string(kinds[kind]) + " case " + std::to_string(i) +
              " on shard " + std::to_string(shard));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GE(inputs, 10000u);
  // Both outcomes occur: damage the seal cannot see (a torn tail, a lost
  // seal) still merges, and the rest is refused.
  EXPECT_GT(merges, 0u);
  EXPECT_LT(merges, inputs);
}

}  // namespace
}  // namespace mmr::sim
