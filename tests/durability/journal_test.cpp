// sim::CampaignJournal: checkpoint round-trip, fingerprint-keyed
// mismatch rejection, and torn-tail tolerance.
#include "sim/journal.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <unistd.h>

namespace mmr::sim {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mmr_journal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    path_ = dir_ + "/campaign.journal";
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }

  static ExperimentSpec demo_spec() {
    ExperimentSpec spec;
    spec.name = "journal_demo";
    spec.scenario.name = "indoor";
    spec.controller.name = "mmreliable";
    spec.trials = 8;
    spec.seed = 42;
    return spec;
  }

  static JournalTrial demo_trial(std::size_t index) {
    JournalTrial t;
    t.index = index;
    t.wall_s = 0.25 + 0.125 * static_cast<double>(index);
    t.cpu_s = 0.125;
    t.label = "scheme/rep" + std::to_string(index);
    t.summary.reliability = 0.9990000000001 + 1e-13 * index;
    t.summary.mean_throughput_bps = 1.23456789e9;
    t.summary.mean_spectral_efficiency = 7.654321;
    t.summary.throughput_reliability_product = 1.2333e9;
    t.summary.num_samples = 400;
    core::FaultEvent ev;
    ev.t_s = 0.1 * static_cast<double>(index);
    ev.kind = core::FaultEventKind::kProbeDropped;
    ev.beam = index % 2 == 0 ? core::kNoBeam : index;
    ev.value = 3.0;
    t.faults.push_back(ev);
    return t;
  }

  std::string dir_, path_;
};

TEST_F(JournalTest, RoundTripRestoresTrialsBitExactly) {
  const CampaignKey key = campaign_key(demo_spec());
  {
    CampaignJournal journal(path_, key);
    EXPECT_TRUE(journal.completed().empty());
    journal.record(demo_trial(0));
    journal.record(demo_trial(3));
    journal.record(demo_trial(7));
  }
  CampaignJournal reopened(path_, key);
  ASSERT_EQ(reopened.completed().size(), 3u);
  for (std::size_t index : {0u, 3u, 7u}) {
    const auto it = reopened.completed().find(index);
    ASSERT_NE(it, reopened.completed().end()) << "index " << index;
    const JournalTrial expected = demo_trial(index);
    const JournalTrial& got = it->second;
    // Bit-exact doubles: compare the raw IEEE-754 patterns.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.wall_s),
              std::bit_cast<std::uint64_t>(expected.wall_s));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cpu_s),
              std::bit_cast<std::uint64_t>(expected.cpu_s));
    EXPECT_EQ(got.label, expected.label);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.summary.reliability),
              std::bit_cast<std::uint64_t>(expected.summary.reliability));
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(got.summary.mean_throughput_bps),
        std::bit_cast<std::uint64_t>(expected.summary.mean_throughput_bps));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  got.summary.mean_spectral_efficiency),
              std::bit_cast<std::uint64_t>(
                  expected.summary.mean_spectral_efficiency));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  got.summary.throughput_reliability_product),
              std::bit_cast<std::uint64_t>(
                  expected.summary.throughput_reliability_product));
    EXPECT_EQ(got.summary.num_samples, expected.summary.num_samples);
    ASSERT_EQ(got.faults.size(), expected.faults.size());
    EXPECT_EQ(got.faults[0].kind, expected.faults[0].kind);
    EXPECT_EQ(got.faults[0].beam, expected.faults[0].beam);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.faults[0].t_s),
              std::bit_cast<std::uint64_t>(expected.faults[0].t_s));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.faults[0].value),
              std::bit_cast<std::uint64_t>(expected.faults[0].value));
  }
}

TEST_F(JournalTest, RoundTripsAwkwardDoublesAndLabels) {
  const CampaignKey key = campaign_key(demo_spec());
  JournalTrial t;
  t.index = 1;
  t.wall_s = -0.0;  // negative zero must survive
  t.cpu_s = std::numeric_limits<double>::denorm_min();
  t.label = "weird \"label\" with \\ and\nnewline";
  t.summary.reliability = std::numeric_limits<double>::quiet_NaN();
  {
    CampaignJournal journal(path_, key);
    journal.record(t);
  }
  CampaignJournal reopened(path_, key);
  const auto it = reopened.completed().find(1);
  ASSERT_NE(it, reopened.completed().end());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(it->second.wall_s),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(it->second.cpu_s),
            std::bit_cast<std::uint64_t>(
                std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(it->second.label, t.label);
  EXPECT_TRUE(std::isnan(it->second.summary.reliability));
}

TEST_F(JournalTest, MismatchedSeedIsRejected) {
  { CampaignJournal journal(path_, campaign_key(demo_spec())); }
  ExperimentSpec other = demo_spec();
  other.seed = 43;
  EXPECT_THROW(CampaignJournal(path_, campaign_key(other)),
               JournalMismatchError);
}

TEST_F(JournalTest, MismatchedTrialCountIsRejected) {
  { CampaignJournal journal(path_, campaign_key(demo_spec())); }
  ExperimentSpec other = demo_spec();
  other.trials = 9;
  EXPECT_THROW(CampaignJournal(path_, campaign_key(other)),
               JournalMismatchError);
}

TEST_F(JournalTest, MismatchedNameIsRejected) {
  { CampaignJournal journal(path_, campaign_key(demo_spec())); }
  ExperimentSpec other = demo_spec();
  other.name = "different_campaign";
  EXPECT_THROW(CampaignJournal(path_, campaign_key(other)),
               JournalMismatchError);
}

TEST_F(JournalTest, ConfigChangeFlipsTheFingerprintAndIsRejected) {
  { CampaignJournal journal(path_, campaign_key(demo_spec())); }
  // Any config scalar drift -- here the run duration -- must be caught by
  // the fingerprint even though name/seed/trials all still match.
  ExperimentSpec other = demo_spec();
  other.run.duration_s = 2.0;
  EXPECT_NE(fingerprint_spec(other), fingerprint_spec(demo_spec()));
  EXPECT_THROW(CampaignJournal(path_, campaign_key(other)),
               JournalMismatchError);
}

TEST_F(JournalTest, FaultPlanChangeFlipsTheFingerprint) {
  ExperimentSpec a = demo_spec();
  ExperimentSpec b = demo_spec();
  b.run.faults.probe_drop_prob = 0.05;
  EXPECT_NE(fingerprint_spec(a), fingerprint_spec(b));
}

TEST_F(JournalTest, GarbageHeaderIsRejected) {
  {
    std::ofstream out(path_);
    out << "not a journal at all\n";
  }
  EXPECT_THROW(CampaignJournal(path_, campaign_key(demo_spec())),
               JournalMismatchError);
}

TEST_F(JournalTest, BlankFirstLineIsRejectedAndLeftUntouched) {
  // Only a missing or zero-byte file is a fresh campaign. A non-empty file
  // whose first line is blank is not this campaign's journal; overwriting
  // it with a new header would silently destroy whatever it holds.
  const CampaignKey key = campaign_key(demo_spec());
  const std::string content = "\n" + journal_header_line(key) +
                              journal_trial_line(demo_trial(2));
  {
    std::ofstream out(path_, std::ios::binary);
    out << content;
  }
  try {
    CampaignJournal journal(path_, key);
    FAIL() << "resumed a journal whose first line is blank";
  } catch (const JournalMismatchError& e) {
    EXPECT_NE(std::string(e.what()).find("unreadable header"),
              std::string::npos)
        << e.what();
  }
  std::ifstream in(path_, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(os.str(), content);
}

TEST_F(JournalTest, UnknownExtraHeaderFieldIsRejectedAsUnreadable) {
  // Forward-compat contract: the header parser is strict and positional,
  // so a journal written by a FUTURE format that appends an extra header
  // field must be refused as unreadable -- never half-understood and
  // resumed with the unknown field silently dropped. (Adding a field
  // means bumping kJournalFormat; the shard field is the one sanctioned
  // extension and is parsed explicitly.)
  const CampaignKey key = campaign_key(demo_spec());
  std::string header = journal_header_line(key);
  ASSERT_EQ(header.substr(header.size() - 3), "}}\n");
  header.insert(header.size() - 3, ", \"future_knob\": 1");
  {
    std::ofstream out(path_, std::ios::binary);
    out << header;
  }
  try {
    CampaignJournal journal(path_, key);
    FAIL() << "resumed a journal with an unknown extra header field";
  } catch (const JournalMismatchError& e) {
    EXPECT_NE(std::string(e.what()).find("unreadable header"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(read_journal_file(path_), JournalMismatchError);
}

TEST_F(JournalTest, TornTrailingLineIsDroppedNotFatal) {
  const CampaignKey key = campaign_key(demo_spec());
  {
    CampaignJournal journal(path_, key);
    journal.record(demo_trial(0));
    journal.record(demo_trial(1));
  }
  // Simulate a SIGKILL mid-append: chop the file mid-way through the last
  // record's line.
  std::string content;
  {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    content = os.str();
  }
  const std::size_t cut = content.size() - 25;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(cut));
  }
  CampaignJournal reopened(path_, key);
  EXPECT_EQ(reopened.completed().size(), 1u);
  EXPECT_TRUE(reopened.completed().count(0));
  EXPECT_FALSE(reopened.completed().count(1));
  // And the journal still accepts new records after the torn tail.
  reopened.record(demo_trial(1));
}

TEST_F(JournalTest, DuplicateIndexKeepsTheFirstRecord) {
  const CampaignKey key = campaign_key(demo_spec());
  {
    CampaignJournal journal(path_, key);
    JournalTrial first = demo_trial(2);
    first.label = "first";
    JournalTrial second = demo_trial(2);
    second.label = "second";
    journal.record(first);
    journal.record(second);
  }
  CampaignJournal reopened(path_, key);
  ASSERT_EQ(reopened.completed().size(), 1u);
  EXPECT_EQ(reopened.completed().at(2).label, "first");
}

}  // namespace
}  // namespace mmr::sim
