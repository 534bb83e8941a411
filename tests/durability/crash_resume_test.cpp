// The resume contract, proven the hard way: a child process running a
// journaled campaign through the bench CLI helpers is SIGKILLed mid-sweep;
// the parent resumes from the journal and the resulting --json-out bytes
// must be identical to an uninterrupted run. Timing is frozen in every run
// (--freeze-timing) since wall-clock can never reproduce.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/campaign_cli.h"
#include "sim/engine.h"
#include "sim/journal.h"
#include "sim/telemetry.h"

namespace mmr {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// The campaign under test: the first trials are fast, the later ones
/// sleep long enough that the parent can reliably SIGKILL the child while
/// the sweep is still in flight. Faults are enabled so journal replay has
/// to restore fault-event streams, and labels so it has to restore those.
sim::ExperimentSpec crash_spec() {
  sim::ExperimentSpec spec;
  spec.name = "crash_resume_demo";
  spec.scenario.name = "indoor";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.1;
  spec.run.faults.probe_drop_prob = 0.2;
  spec.trials = 6;
  spec.jobs = 2;
  spec.seed = 11;
  spec.seed_policy = sim::SeedPolicy::kPerTrialStream;
  spec.customize = [](const sim::TrialContext& ctx, sim::ScenarioSpec&,
                      sim::ControllerSpec&, sim::RunConfig&) {
    if (ctx.index >= 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  };
  spec.label = [](const sim::TrialContext& ctx) {
    return "rep" + std::to_string(ctx.index);
  };
  return spec;
}

class CrashResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mmr_crash_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }
  std::string dir_;
};

TEST_F(CrashResumeTest, SigkilledCampaignResumesByteIdentically) {
  const sim::ExperimentSpec spec = crash_spec();
  const std::string journal_base = dir_ + "/ckpt";
  const std::string journal_file =
      sim::journal_path(journal_base, spec.name);

  // --- child: run the journaled campaign until we kill it ---------------
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    sim::SweepCliOptions opts;
    opts.jobs = 2;
    opts.resume = journal_base;
    opts.json_out = dir_ + "/child.json";
    opts.freeze_timing = true;
    (void)sim::run_campaign(spec, opts);
    ::_exit(0);  // never reached: the parent kills us mid-sweep
  }

  // Wait for at least two checkpointed trials, then SIGKILL mid-flight.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool child_exited = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (count_occurrences(read_all(journal_file), "{\"trial\":") >= 2) break;
    int status = 0;
    if (::waitpid(child, &status, WNOHANG) == child) {
      child_exited = true;  // finished early; resume degenerates to replay
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!child_exited) {
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
  }

  // The kill must have left a usable journal with partial progress.
  const std::string journal_bytes = read_all(journal_file);
  EXPECT_GE(count_occurrences(journal_bytes, "{\"trial\":"), 2u);
  if (!child_exited) {
    // No committed --json-out: the AtomicFile was never committed.
    EXPECT_TRUE(read_all(dir_ + "/child.json").empty());
  }

  // --- parent: resume ---------------------------------------------------
  sim::SweepCliOptions resume_opts;
  resume_opts.jobs = 2;
  resume_opts.resume = journal_base;
  resume_opts.json_out = dir_ + "/resumed.json";
  resume_opts.freeze_timing = true;
  const sim::EngineResult resumed = sim::run_campaign(spec, resume_opts);
  EXPECT_GE(resumed.replayed_trials, 2u);
  EXPECT_LE(resumed.replayed_trials, spec.trials);
  EXPECT_TRUE(resumed.failures.empty());

  // --- reference: the same campaign, uninterrupted, no journal ----------
  sim::SweepCliOptions ref_opts;
  ref_opts.jobs = 2;
  ref_opts.json_out = dir_ + "/reference.json";
  ref_opts.freeze_timing = true;
  (void)sim::run_campaign(spec, ref_opts);

  const std::string resumed_json = read_all(dir_ + "/resumed.json");
  const std::string reference_json = read_all(dir_ + "/reference.json");
  ASSERT_FALSE(reference_json.empty());
  EXPECT_EQ(resumed_json, reference_json)
      << "resumed output must be byte-identical to an uninterrupted run";
}

TEST_F(CrashResumeTest, SecondResumeReplaysEveryTrial) {
  sim::ExperimentSpec spec = crash_spec();
  spec.customize = nullptr;  // no need to be slow here
  spec.trials = 3;
  const std::string path = dir_ + "/done.journal";

  sim::EngineOptions opts;
  opts.freeze_timing = true;
  std::string first_json;
  {
    sim::CampaignJournal journal(path, sim::campaign_key(spec));
    opts.journal = &journal;
    std::ostringstream os;
    sim::JsonLinesSink sink(os);
    const sim::EngineResult r = sim::Engine().run(spec, &sink, opts);
    EXPECT_EQ(r.replayed_trials, 0u);
    first_json = os.str();
  }
  {
    sim::CampaignJournal journal(path, sim::campaign_key(spec));
    EXPECT_EQ(journal.completed().size(), spec.trials);
    opts.journal = &journal;
    std::ostringstream os;
    sim::JsonLinesSink sink(os);
    const sim::EngineResult r = sim::Engine().run(spec, &sink, opts);
    EXPECT_EQ(r.replayed_trials, spec.trials);
    EXPECT_EQ(os.str(), first_json);
  }
}

TEST_F(CrashResumeTest, MismatchedCampaignJournalIsRejected) {
  sim::ExperimentSpec spec = crash_spec();
  spec.customize = nullptr;
  spec.trials = 2;
  const std::string path = dir_ + "/mismatch.journal";
  { sim::CampaignJournal journal(path, sim::campaign_key(spec)); }
  sim::ExperimentSpec other = spec;
  other.run.faults.probe_drop_prob = 0.5;  // different config fingerprint
  EXPECT_THROW(sim::CampaignJournal(path, sim::campaign_key(other)),
               sim::JournalMismatchError);
}

}  // namespace
}  // namespace mmr
