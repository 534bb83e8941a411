// Shard journal headers and the merge validator. The merged journal must
// be byte-for-byte the journal a 1-process run would have written, and
// every way a shard set can be wrong (foreign campaign, overlapping,
// missing, inconsistent count, out-of-ownership trial) must be rejected
// with an error NAMING the offending field and file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/journal.h"
#include "sim/shard.h"

namespace mmr::sim {
namespace {

CampaignKey demo_key() {
  CampaignKey key;
  key.name = "shard_journal_demo";
  key.base_seed = 42;
  key.trials = 6;
  key.seed_policy = SeedPolicy::kFixed;
  key.fingerprint = 0xfeedfacecafebeefull;
  return key;
}

JournalTrial demo_trial(std::size_t index) {
  JournalTrial t;
  t.index = index;
  t.wall_s = 0.25 * static_cast<double>(index + 1);
  t.cpu_s = 0.125 * static_cast<double>(index + 1);
  t.label = "rep" + std::to_string(index);
  t.summary.reliability = 0.5 + 0.01 * static_cast<double>(index);
  t.summary.mean_throughput_bps = 1e9 + static_cast<double>(index);
  t.summary.num_samples = 100 + index;
  return t;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Write a complete shard journal for `plan` holding every trial the
/// shard owns, and return its path.
std::string write_shard(const std::string& dir, const CampaignKey& key,
                        const ShardPlan& plan) {
  const std::string path =
      dir + "/base." + key.name + "." + plan.suffix() + ".journal";
  CampaignJournal journal(path, key, plan);
  for (std::size_t t = 0; t < key.trials; ++t) {
    if (plan.owns(t)) journal.record(demo_trial(t));
  }
  return path;
}

/// Like write_shard, but the worker finished its pass: the journal
/// carries a seal footer vouching for its records.
std::string write_sealed_shard(const std::string& dir,
                               const CampaignKey& key,
                               const ShardPlan& plan) {
  const std::string path =
      dir + "/base." + key.name + "." + plan.suffix() + ".journal";
  CampaignJournal journal(path, key, plan);
  for (std::size_t t = 0; t < key.trials; ++t) {
    if (plan.owns(t)) journal.record(demo_trial(t));
  }
  journal.seal();
  return path;
}

class ShardJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mmr_shardj_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }

  void expect_merge_error(const std::vector<std::string>& paths,
                          const std::string& substr) {
    try {
      merge_journals(paths, dir_ + "/merged.journal", demo_key());
      FAIL() << "merge_journals accepted an invalid shard set (wanted: "
             << substr << ")";
    } catch (const JournalMismatchError& e) {
      EXPECT_NE(std::string(e.what()).find(substr), std::string::npos)
          << "error '" << e.what() << "' does not name '" << substr << "'";
    }
  }

  std::string dir_;
};

TEST_F(ShardJournalTest, UnshardedHeaderBytesAreUnchangedByDefaultPlan) {
  const CampaignKey key = demo_key();
  EXPECT_EQ(journal_header_line(key), journal_header_line(key, ShardPlan{}));
  EXPECT_EQ(journal_header_line(key).find("\"shard\""), std::string::npos);
}

TEST_F(ShardJournalTest, ShardedHeaderCarriesTheShardSpec) {
  const std::string line = journal_header_line(demo_key(), ShardPlan{1, 3});
  EXPECT_NE(line.find("\"shard\": {\"index\": 1, \"count\": 3}"),
            std::string::npos)
      << line;
}

TEST_F(ShardJournalTest, ShardJournalRoundTripsThroughReadJournalFile) {
  const CampaignKey key = demo_key();
  const ShardPlan plan{1, 3};
  const std::string path = write_shard(dir_, key, plan);

  const LoadedJournal loaded = read_journal_file(path);
  EXPECT_EQ(loaded.key.name, key.name);
  EXPECT_EQ(loaded.key.base_seed, key.base_seed);
  EXPECT_EQ(loaded.key.trials, key.trials);
  EXPECT_EQ(loaded.key.fingerprint, key.fingerprint);
  EXPECT_EQ(loaded.shard, plan);
  ASSERT_EQ(loaded.trials.size(), 2u);  // trials 1 and 4 of 6
  EXPECT_EQ(loaded.trials[0].index, 1u);
  EXPECT_EQ(loaded.trials[1].index, 4u);
  EXPECT_EQ(loaded.trials[0].label, "rep1");
  // Bit-exact double restore (the hex bit-pattern contract).
  EXPECT_EQ(loaded.trials[1].summary.mean_throughput_bps, 1e9 + 4.0);
}

TEST_F(ShardJournalTest, ResumingUnderADifferentShardPlanThrows) {
  const CampaignKey key = demo_key();
  const std::string path = write_shard(dir_, key, ShardPlan{1, 3});
  try {
    CampaignJournal journal(path, key, ShardPlan{2, 3});
    FAIL() << "accepted a different shard index";
  } catch (const JournalMismatchError& e) {
    EXPECT_NE(std::string(e.what()).find("shard index"), std::string::npos)
        << e.what();
  }
  try {
    CampaignJournal journal(path, key, ShardPlan{1, 4});
    FAIL() << "accepted a different shard count";
  } catch (const JournalMismatchError& e) {
    EXPECT_NE(std::string(e.what()).find("shard count"), std::string::npos)
        << e.what();
  }
  // The right plan still resumes.
  CampaignJournal journal(path, key, ShardPlan{1, 3});
  EXPECT_EQ(journal.completed().size(), 2u);
}

TEST_F(ShardJournalTest, MergeReconstitutesTheSingleProcessJournal) {
  const CampaignKey key = demo_key();
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < 3; ++i) {
    paths.push_back(write_shard(dir_, key, ShardPlan{i, 3}));
  }
  const std::string merged = dir_ + "/merged.journal";
  const MergeStats stats = merge_journals(paths, merged, key);
  EXPECT_EQ(stats.shard_count, 3u);
  EXPECT_EQ(stats.merged_trials, 6u);
  EXPECT_EQ(stats.missing_trials, 0u);

  // Byte-for-byte what a 1-process journaled run would have written:
  // unsharded header, then trials in ascending index order.
  std::string expected = journal_header_line(key);
  for (std::size_t t = 0; t < key.trials; ++t) {
    expected += journal_trial_line(demo_trial(t));
  }
  EXPECT_EQ(read_all(merged), expected);
}

TEST_F(ShardJournalTest, MergeCountsTrialsLostToACrash) {
  const CampaignKey key = demo_key();
  std::vector<std::string> paths;
  // Shard 0 checkpointed only its first owned trial before "crashing".
  {
    const ShardPlan plan{0, 2};
    const std::string path =
        dir_ + "/base." + key.name + "." + plan.suffix() + ".journal";
    CampaignJournal journal(path, key, plan);
    journal.record(demo_trial(0));
    paths.push_back(path);
  }
  paths.push_back(write_shard(dir_, key, ShardPlan{1, 2}));
  const MergeStats stats =
      merge_journals(paths, dir_ + "/merged.journal", key);
  EXPECT_EQ(stats.merged_trials, 4u);
  EXPECT_EQ(stats.missing_trials, 2u);  // trials 2 and 4 re-run on replay
}

TEST_F(ShardJournalTest, MergeRejectsAnEmptySet) {
  expect_merge_error({}, "no shard journals");
}

TEST_F(ShardJournalTest, MergeRejectsAnUnshardedJournal) {
  const CampaignKey key = demo_key();
  const std::string path = dir_ + "/base." + key.name + ".journal";
  { CampaignJournal journal(path, key); }
  expect_merge_error({path}, "not a shard journal");
}

TEST_F(ShardJournalTest, MergeRejectsOverlappingShards) {
  const CampaignKey key = demo_key();
  const std::string a = write_shard(dir_, key, ShardPlan{0, 2});
  const std::string b = dir_ + "/copy.journal";
  {
    std::ofstream out(b, std::ios::binary);
    out << read_all(a);
  }
  const std::string c = write_shard(dir_, key, ShardPlan{1, 2});
  expect_merge_error({a, b, c}, "overlapping");
}

TEST_F(ShardJournalTest, MergeRejectsAMissingShard) {
  const CampaignKey key = demo_key();
  const std::string a = write_shard(dir_, key, ShardPlan{0, 3});
  const std::string c = write_shard(dir_, key, ShardPlan{2, 3});
  expect_merge_error({a, c}, "missing shard journal: shard index 1");
}

TEST_F(ShardJournalTest, MergeRejectsInconsistentShardCounts) {
  const CampaignKey key = demo_key();
  const std::string a = write_shard(dir_, key, ShardPlan{0, 2});
  const std::string b = write_shard(dir_, key, ShardPlan{1, 3});
  expect_merge_error({a, b}, "shard count differs");
}

TEST_F(ShardJournalTest, MergeRejectsForeignCampaignsNamingTheField) {
  const CampaignKey key = demo_key();
  CampaignKey other = key;
  other.base_seed = 43;
  const std::string a = write_shard(dir_, other, ShardPlan{0, 2});
  const std::string b = write_shard(dir_, key, ShardPlan{1, 2});
  expect_merge_error({a, b}, "base seed differs");

  CampaignKey fp = key;
  fp.fingerprint ^= 1;
  const std::string c = dir_ + "/fp.journal";
  {
    std::ofstream out(c, std::ios::binary);
    out << journal_header_line(fp, ShardPlan{0, 2});
  }
  expect_merge_error({c, b}, "config fingerprint differs");

  CampaignKey fewer = key;
  fewer.trials = 4;
  const std::string d = dir_ + "/trials.journal";
  {
    std::ofstream out(d, std::ios::binary);
    out << journal_header_line(fewer, ShardPlan{0, 2});
  }
  expect_merge_error({d, b}, "trial count differs");
}

TEST_F(ShardJournalTest, MergeRejectsATrialOutsideTheShardsOwnership) {
  const CampaignKey key = demo_key();
  // Forge a shard-0-of-2 journal claiming trial 1 (owned by shard 1).
  const std::string a = dir_ + "/forged.journal";
  {
    std::ofstream out(a, std::ios::binary);
    out << journal_header_line(key, ShardPlan{0, 2})
        << journal_trial_line(demo_trial(1));
  }
  const std::string b = write_shard(dir_, key, ShardPlan{1, 2});
  expect_merge_error({a, b}, "outside the shard's ownership");
}

TEST_F(ShardJournalTest, DiscoverFindsExactlyTheSiblingShardJournals) {
  const CampaignKey key = demo_key();
  const std::string merged = dir_ + "/base." + key.name + ".journal";
  EXPECT_TRUE(discover_shard_journals(merged).empty());

  std::vector<std::string> written;
  for (std::size_t i = 0; i < 3; ++i) {
    written.push_back(write_shard(dir_, key, ShardPlan{i, 3}));
  }
  // Decoys: an unsharded journal, a different campaign's shard journal,
  // and a non-journal file with a shard-ish name.
  { CampaignJournal journal(merged, key); }
  {
    std::ofstream out(dir_ + "/base.other_campaign.shard-0-of-3.journal");
    out << "{}\n";
  }
  {
    std::ofstream out(dir_ + "/base." + key.name + ".shard-x-of-3.journal");
    out << "{}\n";
  }
  const std::vector<std::string> found = discover_shard_journals(merged);
  EXPECT_EQ(found, written);  // already sorted by (count, index)
}

TEST_F(ShardJournalTest, SealRoundTripsAndVouchesForTheRecords) {
  const CampaignKey key = demo_key();
  const ShardPlan plan{0, 2};
  const std::string path = write_sealed_shard(dir_, key, plan);

  const LoadedJournal loaded = read_journal_file(path);
  ASSERT_TRUE(loaded.seal.has_value());
  EXPECT_TRUE(loaded.seal_intact());
  EXPECT_EQ(loaded.seal->trials, 3u);  // trials 0, 2, 4 of 6
  EXPECT_EQ(loaded.seal->fingerprint, loaded.records_fnv);
  // The seal is the literal last line of the file.
  const std::string contents = read_all(path);
  const std::string footer = journal_seal_line(*loaded.seal);
  ASSERT_GE(contents.size(), footer.size());
  EXPECT_EQ(contents.substr(contents.size() - footer.size()), footer);
}

TEST_F(ShardJournalTest, SealedShardsMergeToTheSameSealFreeBytes) {
  // The merged journal is byte-for-byte the 1-process journal: the shard
  // seals are consumed by validation, never copied into the merge.
  const CampaignKey key = demo_key();
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < 2; ++i) {
    paths.push_back(write_sealed_shard(dir_, key, ShardPlan{i, 2}));
  }
  const std::string merged = dir_ + "/merged.journal";
  const MergeStats stats = merge_journals(paths, merged, key);
  EXPECT_EQ(stats.sealed_shards, 2u);
  EXPECT_EQ(stats.missing_trials, 0u);

  std::string expected = journal_header_line(key);
  for (std::size_t t = 0; t < key.trials; ++t) {
    expected += journal_trial_line(demo_trial(t));
  }
  EXPECT_EQ(read_all(merged), expected);
  EXPECT_EQ(read_all(merged).find("campaign_seal"), std::string::npos);
}

TEST_F(ShardJournalTest, UnsealedShardsStillMergeAndCountAsUnsealed) {
  // Pre-seal-format (and in-progress) shard journals are unchanged: no
  // seal, same bytes, same merge result.
  const CampaignKey key = demo_key();
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < 2; ++i) {
    paths.push_back(write_shard(dir_, key, ShardPlan{i, 2}));
  }
  const LoadedJournal loaded = read_journal_file(paths[0]);
  EXPECT_FALSE(loaded.seal.has_value());
  EXPECT_FALSE(loaded.seal_intact());
  const MergeStats stats =
      merge_journals(paths, dir_ + "/merged.journal", key);
  EXPECT_EQ(stats.sealed_shards, 0u);
  EXPECT_EQ(stats.merged_trials, 6u);
}

TEST_F(ShardJournalTest, TailTruncationLosesTheSealAndStaysInProgress) {
  // rsync of a journal mid-write: the copy ends mid-record and the seal
  // (the last line) is gone. That is indistinguishable from a crash and
  // must stay mergeable -- the missing trials are simply re-run.
  const CampaignKey key = demo_key();
  const std::string a = write_sealed_shard(dir_, key, ShardPlan{0, 2});
  const std::string b = write_sealed_shard(dir_, key, ShardPlan{1, 2});
  std::string bytes = read_all(a);
  bytes.resize(bytes.size() * 2 / 3);  // drop the seal and tear a record
  {
    std::ofstream out(a, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const MergeStats stats =
      merge_journals({a, b}, dir_ + "/merged.journal", key);
  EXPECT_EQ(stats.sealed_shards, 1u);
  EXPECT_GT(stats.missing_trials, 0u);
}

TEST_F(ShardJournalTest, TruncationAtARecordBoundaryIsCaughtBySeal) {
  // The nasty transport failure: a whole record line vanishes but the
  // file still ends in clean lines. Record parsing alone cannot see it
  // -- every surviving line is intact -- so only the seal catches it.
  const CampaignKey key = demo_key();
  const std::string a = write_sealed_shard(dir_, key, ShardPlan{0, 2});
  const std::string b = write_sealed_shard(dir_, key, ShardPlan{1, 2});
  const std::string original = read_all(a);
  // Remove the second-to-last line (the last record), keeping the seal.
  const std::size_t seal_start = original.rfind(
      "{\"campaign_seal\"", original.size() - 2);
  ASSERT_NE(seal_start, std::string::npos);
  const std::size_t last_record_start =
      original.rfind('\n', seal_start - 2) + 1;
  {
    std::ofstream out(a, std::ios::binary | std::ios::trunc);
    out << original.substr(0, last_record_start)
        << original.substr(seal_start);
  }
  // The merge refuses, naming the seal disagreement...
  expect_merge_error({a, b}, "seal footer does not match its records");
  // ...and so does a worker trying to resume from the damaged file.
  try {
    CampaignJournal journal(a, key, ShardPlan{0, 2});
    FAIL() << "resumed from a journal whose seal disowns its records";
  } catch (const JournalMismatchError& e) {
    EXPECT_NE(std::string(e.what()).find("seal footer"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("damaged in transport"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ShardJournalTest, JournalPathsFollowTheDiscoveredFormat) {
  const ShardPlan plan{1, 3};
  EXPECT_EQ(shard_journal_path("/tmp/ckpt", "fig16_blockage", plan),
            "/tmp/ckpt.fig16_blockage.shard-1-of-3.journal");
  EXPECT_EQ(shard_journal_path("base", "weird name/with:stuff", plan),
            "base.weird_name_with_stuff.shard-1-of-3.journal");
  // Every shard journal of a campaign is found next to its merged path.
  const CampaignKey key = demo_key();
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string path = shard_journal_path(
        dir_ + "/base", key.name, ShardPlan{i, 3});
    EXPECT_EQ(path, write_shard(dir_, key, ShardPlan{i, 3}));
  }
  EXPECT_EQ(
      discover_shard_journals(journal_path(dir_ + "/base", key.name)).size(),
      3u);
}

TEST_F(ShardJournalTest, ContentAfterTheSealIsRejected) {
  const CampaignKey key = demo_key();
  const std::string a = write_sealed_shard(dir_, key, ShardPlan{0, 2});
  const std::string b = write_sealed_shard(dir_, key, ShardPlan{1, 2});
  {
    std::ofstream out(a, std::ios::binary | std::ios::app);
    out << journal_trial_line(demo_trial(4));
  }
  expect_merge_error({a, b}, "content after the seal");
}

TEST_F(ShardJournalTest, ResumeStripsTheSealAndResealsByteIdentically) {
  const CampaignKey key = demo_key();
  const ShardPlan plan{1, 2};
  const std::string reference = write_sealed_shard(dir_, key, plan);
  const std::string path = dir_ + "/resumed.journal";
  {
    // First pass records only the first owned trial, then seals (say, a
    // --trials override ran a prefix of the campaign).
    CampaignJournal journal(path, key, plan);
    journal.record(demo_trial(1));
    journal.seal();
  }
  {
    // Resume: the honest seal is validated, stripped, and the journal
    // accepts the remaining trials before sealing again.
    CampaignJournal journal(path, key, plan);
    EXPECT_FALSE(journal.sealed());
    EXPECT_EQ(journal.completed().size(), 1u);
    journal.record(demo_trial(3));
    journal.record(demo_trial(5));
    journal.seal();
  }
  EXPECT_EQ(read_all(path), read_all(reference));
}

TEST_F(ShardJournalTest, DiscoverToleratesAMissingDirectory) {
  EXPECT_TRUE(
      discover_shard_journals(dir_ + "/nowhere/base.x.journal").empty());
}

}  // namespace
}  // namespace mmr::sim
