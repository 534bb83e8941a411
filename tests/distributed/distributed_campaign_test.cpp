// The distributed contract, proven with real processes: N forked shard
// workers each run their slice of a campaign through the bench CLI
// helpers, the parent merges the shard journals, and the merged
// --json-out bytes must be IDENTICAL to the 1-process run -- including
// after a worker is SIGKILLed mid-shard and its shard resumed, and when
// a trial deterministically quarantines inside one shard. Timing is
// frozen everywhere (wall-clock can never reproduce).
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/campaign_cli.h"
#include "sim/engine.h"
#include "sim/journal.h"
#include "sim/shard.h"

namespace mmr {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Fig. 16-shaped campaign: blockage sweep on the sparse indoor room,
/// fixed seed, per-trial blocker customize + labels (replay must restore
/// them), short enough to fork a fleet on one core.
sim::ExperimentSpec fig16_like_spec() {
  sim::ExperimentSpec spec;
  spec.name = "dist_fig16_demo";
  spec.scenario.name = "indoor_sparse";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.05;
  spec.trials = 6;
  spec.jobs = 1;
  spec.seed = 16;
  spec.seed_policy = sim::SeedPolicy::kFixed;
  spec.customize = [](const sim::TrialContext& ctx, sim::ScenarioSpec& s,
                      sim::ControllerSpec&, sim::RunConfig&) {
    const double depth_db = 10.0 + 4.0 * static_cast<double>(ctx.index % 3);
    s.blockers = {{0.01, 0.03, depth_db}};
  };
  spec.label = [](const sim::TrialContext& ctx) {
    return "block" + std::to_string(ctx.index);
  };
  return spec;
}

/// Fig. 18-shaped campaign: end-to-end run with faults enabled (replay
/// must restore fault-event streams) under per-trial seed streams.
sim::ExperimentSpec fig18_like_spec() {
  sim::ExperimentSpec spec;
  spec.name = "dist_fig18_demo";
  spec.scenario.name = "indoor";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.05;
  spec.run.faults.probe_drop_prob = 0.2;
  spec.trials = 6;
  spec.jobs = 1;
  spec.seed = 18;
  spec.seed_policy = sim::SeedPolicy::kPerTrialStream;
  spec.label = [](const sim::TrialContext& ctx) {
    return "rep" + std::to_string(ctx.index);
  };
  return spec;
}

/// Run one shard worker in a forked child; returns its pid.
pid_t fork_worker(const sim::ExperimentSpec& spec, const std::string& base,
                  const sim::ShardPlan& plan) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    sim::SweepCliOptions opts;
    opts.resume = base;
    opts.shard = plan;
    opts.freeze_timing = true;
    (void)sim::run_campaign(spec, opts);
    ::_exit(0);
  }
  return pid;
}

void wait_ok(pid_t pid) {
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
}

class DistributedCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mmr_dist_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }

  /// 1-process journaled reference run; returns its --json-out bytes.
  std::string reference_json(const sim::ExperimentSpec& spec) {
    sim::SweepCliOptions opts;
    opts.resume = dir_ + "/ref";
    opts.json_out = dir_ + "/ref.json";
    opts.freeze_timing = true;
    (void)sim::run_campaign(spec, opts);
    return read_all(dir_ + "/ref.json");
  }

  /// Merge the shard journals under `base` and return the --json-out
  /// bytes of the merged replay.
  std::string merge_json(const sim::ExperimentSpec& spec,
                         const std::string& base, const char* out_name) {
    sim::SweepCliOptions opts;
    opts.merge = base;
    opts.json_out = dir_ + "/" + out_name;
    opts.freeze_timing = true;
    const sim::EngineResult r = sim::run_campaign(spec, opts);
    EXPECT_EQ(r.trials.size(), spec.trials);
    return read_all(dir_ + "/" + out_name);
  }

  std::string dir_;
};

TEST_F(DistributedCampaignTest, ShardedMergeIsByteIdenticalAcrossCounts) {
  const sim::ExperimentSpec spec = fig16_like_spec();
  const std::string reference = reference_json(spec);
  ASSERT_FALSE(reference.empty());

  // 8 > trials: shards 6 and 7 own nothing and must still merge cleanly.
  for (const std::size_t count : {2u, 3u, 8u}) {
    const std::string base =
        dir_ + "/n" + std::to_string(count);
    std::vector<pid_t> workers;
    for (std::size_t i = 0; i < count; ++i) {
      workers.push_back(fork_worker(spec, base, {i, count}));
      ASSERT_NE(workers.back(), -1);
    }
    for (const pid_t pid : workers) wait_ok(pid);

    const std::string merged = merge_json(
        spec, base, ("merged" + std::to_string(count) + ".json").c_str());
    EXPECT_EQ(merged, reference)
        << count << "-shard merge differs from the 1-process run";
  }
}

TEST_F(DistributedCampaignTest, Fig18StyleFaultCampaignMergesByteExactly) {
  const sim::ExperimentSpec spec = fig18_like_spec();
  const std::string reference = reference_json(spec);
  ASSERT_FALSE(reference.empty());

  const std::string base = dir_ + "/f18";
  std::vector<pid_t> workers;
  for (std::size_t i = 0; i < 3; ++i) {
    workers.push_back(fork_worker(spec, base, {i, 3}));
    ASSERT_NE(workers.back(), -1);
  }
  for (const pid_t pid : workers) wait_ok(pid);
  EXPECT_EQ(merge_json(spec, base, "f18.json"), reference);
}

TEST_F(DistributedCampaignTest, SigkilledShardResumesAndMergesByteExactly) {
  const sim::ExperimentSpec spec = fig16_like_spec();
  const std::string reference = reference_json(spec);
  const std::string base = dir_ + "/kill";

  // Shards 0 and 2 complete normally.
  const pid_t w0 = fork_worker(spec, base, {0, 3});
  ASSERT_NE(w0, -1);
  wait_ok(w0);
  const pid_t w2 = fork_worker(spec, base, {2, 3});
  ASSERT_NE(w2, -1);
  wait_ok(w2);

  // Shard 1 owns trials {1, 4}: its worker checkpoints trial 1, then
  // SIGKILLs itself entering trial 4 -- deterministic, no sleeps.
  sim::ExperimentSpec dying = spec;
  const auto base_customize = spec.customize;
  dying.customize = [base_customize](const sim::TrialContext& ctx,
                                     sim::ScenarioSpec& s,
                                     sim::ControllerSpec& c,
                                     sim::RunConfig& r) {
    base_customize(ctx, s, c, r);
    if (ctx.index == 4) (void)::raise(SIGKILL);
  };
  const pid_t w1 = fork_worker(dying, base, {1, 3});
  ASSERT_NE(w1, -1);
  int status = 0;
  ASSERT_EQ(::waitpid(w1, &status, 0), w1);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The kill left a durable partial shard journal: trial 1 only.
  const std::string shard1 =
      base + "." + spec.name + ".shard-1-of-3.journal";
  {
    const sim::LoadedJournal partial = sim::read_journal_file(shard1);
    ASSERT_EQ(partial.trials.size(), 1u);
    EXPECT_EQ(partial.trials[0].index, 1u);
  }

  // Resume the shard (the healthy spec this time) and merge.
  const pid_t w1b = fork_worker(spec, base, {1, 3});
  ASSERT_NE(w1b, -1);
  wait_ok(w1b);
  {
    const sim::LoadedJournal full = sim::read_journal_file(shard1);
    ASSERT_EQ(full.trials.size(), 2u);
  }
  EXPECT_EQ(merge_json(spec, base, "kill.json"), reference)
      << "kill + resume + merge must reproduce the 1-process bytes";
}

TEST_F(DistributedCampaignTest, MergeRerunsTrialsACrashedShardNeverRan) {
  // Even WITHOUT resuming the killed shard, the merge re-runs the
  // missing trials live and still reproduces the 1-process bytes (the
  // merged journal is just missing those indices).
  const sim::ExperimentSpec spec = fig16_like_spec();
  const std::string reference = reference_json(spec);
  const std::string base = dir_ + "/rerun";

  for (std::size_t i = 0; i < 2; ++i) {
    const pid_t w = fork_worker(spec, base, {i, 2});
    ASSERT_NE(w, -1);
    wait_ok(w);
  }
  // Drop shard 0's journal to one checkpointed trial: rewrite it with
  // only its header + first line (what a very early SIGKILL leaves).
  const std::string shard0 =
      base + "." + spec.name + ".shard-0-of-2.journal";
  const sim::LoadedJournal full = sim::read_journal_file(shard0);
  ASSERT_GE(full.trials.size(), 2u);
  {
    std::ofstream out(shard0, std::ios::binary | std::ios::trunc);
    out << sim::journal_header_line(full.key, full.shard)
        << sim::journal_trial_line(full.trials[0]);
  }

  sim::SweepCliOptions opts;
  opts.merge = base;
  opts.json_out = dir_ + "/rerun.json";
  opts.freeze_timing = true;
  const sim::EngineResult r = sim::run_campaign(spec, opts);
  EXPECT_EQ(r.replayed_trials, spec.trials - 2);  // trials 2, 4 re-ran
  EXPECT_EQ(read_all(dir_ + "/rerun.json"), reference);
}

TEST_F(DistributedCampaignTest, QuarantineInOneShardSurvivesTheMerge) {
  // A deterministically-throwing trial quarantines inside its shard, is
  // never journaled, re-runs at merge time, re-quarantines there, and
  // the merged JSON (failed trial slot + failure entry) is byte-equal
  // to the 1-process journaled run.
  sim::ExperimentSpec spec = fig16_like_spec();
  spec.name = "dist_quarantine_demo";
  const auto base_customize = spec.customize;
  spec.customize = [base_customize](const sim::TrialContext& ctx,
                                    sim::ScenarioSpec& s,
                                    sim::ControllerSpec& c,
                                    sim::RunConfig& r) {
    base_customize(ctx, s, c, r);
    if (ctx.index == 2) throw std::runtime_error("injected failure");
  };

  const std::string reference = reference_json(spec);
  EXPECT_NE(reference.find("\"quarantined\": true"), std::string::npos);
  EXPECT_NE(reference.find("injected failure"), std::string::npos);

  const std::string base = dir_ + "/quar";
  for (std::size_t i = 0; i < 2; ++i) {
    const pid_t w = fork_worker(spec, base, {i, 2});
    ASSERT_NE(w, -1);
    wait_ok(w);
  }
  // Shard 0 owns {0, 2, 4} but journaled only {0, 4}.
  const sim::LoadedJournal shard0 = sim::read_journal_file(
      base + "." + spec.name + ".shard-0-of-2.journal");
  ASSERT_EQ(shard0.trials.size(), 2u);
  EXPECT_EQ(shard0.trials[0].index, 0u);
  EXPECT_EQ(shard0.trials[1].index, 4u);

  EXPECT_EQ(merge_json(spec, base, "quar.json"), reference);
}

TEST_F(DistributedCampaignTest, QueueDrivenFleetMergesByteExactly) {
  // Workers that self-assign shards from the file queue: more workers
  // than shards, every worker loops until the queue is dry, claims are
  // exclusive across PROCESSES (the in-process exclusivity is covered in
  // shard_plan_test).
  const sim::ExperimentSpec spec = fig16_like_spec();
  const std::string reference = reference_json(spec);
  const std::string base = dir_ + "/queue";
  const std::string qdir = dir_ + "/qdir";
  constexpr std::size_t kShards = 3;
  sim::ShardQueue::init(qdir, kShards);

  std::vector<pid_t> workers;
  for (int w = 0; w < 4; ++w) {
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      while (const auto plan = sim::ShardQueue::claim(qdir)) {
        sim::SweepCliOptions opts;
        opts.resume = base;
        opts.shard = *plan;
        opts.freeze_timing = true;
        (void)sim::run_campaign(spec, opts);
      }
      ::_exit(0);
    }
    workers.push_back(pid);
  }
  for (const pid_t pid : workers) wait_ok(pid);

  // Every shard journal exists exactly once and merges byte-exactly.
  const std::vector<std::string> found = sim::discover_shard_journals(
      base + "." + spec.name + ".journal");
  EXPECT_EQ(found.size(), kShards);
  EXPECT_EQ(merge_json(spec, base, "queue.json"), reference);
}

TEST_F(DistributedCampaignTest, LeaseTakeoverFleetRecoversByteExactly) {
  // The full fault-tolerance story with real processes: a 4-worker fleet
  // drains a 3-shard queue, one worker is SIGKILLed mid-shard while
  // HOLDING a lease, and the fleet recovers on its own -- the stale
  // lease lapses, a healthy worker reclaims the shard, resumes its
  // journal, and the merge is byte-identical to the 1-process run.
  const sim::ExperimentSpec spec = fig16_like_spec();
  const std::string reference = reference_json(spec);
  const std::string base = dir_ + "/fleet";
  const std::string qdir = dir_ + "/fleetq";
  constexpr std::size_t kShards = 3;
  sim::ShardQueue::init(qdir, kShards);

  sim::LeaseOptions lease;
  lease.ttl_s = 0.25;  // + grace ttl/4: stale ~310ms after the kill

  // The victim claims first (lowest index: shard 0, trials {0, 3}),
  // checkpoints trial 0, then SIGKILLs itself entering trial 3 with the
  // lease still held. SIGKILL skips destructors: no complete(), no
  // requeue -- exactly what a powered-off machine leaves behind.
  sim::ExperimentSpec dying = spec;
  const auto base_customize = spec.customize;
  dying.customize = [base_customize](const sim::TrialContext& ctx,
                                     sim::ScenarioSpec& s,
                                     sim::ControllerSpec& c,
                                     sim::RunConfig& r) {
    base_customize(ctx, s, c, r);
    if (ctx.index == 3) (void)::raise(SIGKILL);
  };
  const pid_t victim = ::fork();
  ASSERT_NE(victim, -1);
  if (victim == 0) {
    const auto plan = sim::ShardQueue::claim(qdir, lease);
    if (!plan.has_value()) ::_exit(3);
    sim::ShardLeaseKeeper keeper(qdir, *plan, lease);
    sim::SweepCliOptions opts;
    opts.resume = base;
    opts.shard = *plan;
    opts.freeze_timing = true;
    (void)sim::run_campaign(dying, opts);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  // The kill left the shard leased, not done.
  EXPECT_EQ(sim::ShardQueue::counts(qdir).claimed, 1u);

  // A 4-worker recovery fleet drains the queue. Workers do not stop at
  // the first empty claim: a leased shard may still lapse, so they spin
  // until every shard is done (the fleet-drain loop from the README).
  std::vector<pid_t> workers;
  for (int w = 0; w < 4; ++w) {
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      for (;;) {
        const auto plan = sim::ShardQueue::claim(qdir, lease);
        if (!plan.has_value()) {
          const auto c = sim::ShardQueue::counts(qdir);
          if (c.todo == 0 && c.claimed == 0) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;
        }
        sim::ShardLeaseKeeper keeper(qdir, *plan, lease);
        sim::SweepCliOptions opts;
        opts.resume = base;
        opts.shard = *plan;
        opts.freeze_timing = true;
        (void)sim::run_campaign(spec, opts);
      }
      ::_exit(0);
    }
    workers.push_back(pid);
  }
  for (const pid_t pid : workers) wait_ok(pid);

  // Every shard was retired exactly once, the victim's journal was
  // resumed (trial 0 kept, trial 3 re-run) and sealed by its reclaimer.
  const auto counts = sim::ShardQueue::counts(qdir);
  EXPECT_EQ(counts.todo, 0u);
  EXPECT_EQ(counts.claimed, 0u);
  EXPECT_EQ(counts.done, kShards);
  const sim::LoadedJournal shard0 = sim::read_journal_file(
      base + "." + spec.name + ".shard-0-of-3.journal");
  EXPECT_EQ(shard0.trials.size(), 2u);
  EXPECT_TRUE(shard0.seal_intact());

  EXPECT_EQ(merge_json(spec, base, "fleet.json"), reference)
      << "lease takeover + resume + merge must reproduce the 1-process "
         "bytes";
}

TEST_F(DistributedCampaignTest, ConcurrentWatchMergeIsByteIdentical) {
  // --merge --watch running WHILE the fleet writes: the watcher starts
  // before any shard journal exists, tolerates partially-written files,
  // and finalizes only when all shards carry intact seals. Its JSON must
  // be byte-identical to the 1-process run.
  const sim::ExperimentSpec spec = fig16_like_spec();
  const std::string reference = reference_json(spec);
  const std::string base = dir_ + "/cw";

  const pid_t watcher = ::fork();
  ASSERT_NE(watcher, -1);
  if (watcher == 0) {
    sim::SweepCliOptions opts;
    opts.merge = base;
    opts.watch = true;
    opts.json_out = dir_ + "/cw.json";
    opts.freeze_timing = true;
    (void)sim::run_campaign(spec, opts);
    ::_exit(0);
  }

  std::vector<pid_t> workers;
  for (std::size_t i = 0; i < 3; ++i) {
    workers.push_back(fork_worker(spec, base, {i, 3}));
    ASSERT_NE(workers.back(), -1);
  }
  for (const pid_t pid : workers) wait_ok(pid);
  wait_ok(watcher);  // finalized on its own once the last seal landed
  EXPECT_EQ(read_all(dir_ + "/cw.json"), reference);
}

TEST_F(DistributedCampaignTest, WatchMergeWaitsOutAHalfCopiedJournal) {
  // Shard journals are rsync'd to the merge host, and the watcher
  // observes one mid-copy: complete header, torn record, no seal. It
  // must keep waiting (never merge the torn prefix, never reject it as
  // damage) until the full sealed file lands, then finalize byte-exactly.
  const sim::ExperimentSpec spec = fig16_like_spec();
  const std::string reference = reference_json(spec);

  // The fleet ran to completion elsewhere (in-process here: the forked
  // fleet path is covered above).
  const std::string src = dir_ + "/src";
  for (std::size_t i = 0; i < 2; ++i) {
    sim::SweepCliOptions opts;
    opts.resume = src;
    opts.shard = sim::ShardPlan{i, 2};
    opts.freeze_timing = true;
    (void)sim::run_campaign(spec, opts);
  }
  const std::string src0 = src + "." + spec.name + ".shard-0-of-2.journal";
  const std::string src1 = src + "." + spec.name + ".shard-1-of-2.journal";
  const std::string full0 = read_all(src0);

  // "rsync" to the merge host's landing directory: shard 1 arrived
  // whole, shard 0 is caught mid-transfer (header plus a torn record).
  const std::string land = dir_ + "/land";
  std::filesystem::create_directory(land);
  const std::string dst_base = land + "/copy";
  const std::string dst0 =
      dst_base + "." + spec.name + ".shard-0-of-2.journal";
  {
    std::ofstream out(dst_base + "." + spec.name + ".shard-1-of-2.journal",
                      std::ios::binary);
    out << read_all(src1);
  }
  const std::size_t header_end = full0.find('\n') + 1;
  ASSERT_GT(header_end, 1u);
  {
    std::ofstream out(dst0, std::ios::binary);
    out << full0.substr(0, header_end + (full0.size() - header_end) / 2);
  }

  const pid_t watcher = ::fork();
  ASSERT_NE(watcher, -1);
  if (watcher == 0) {
    sim::SweepCliOptions opts;
    opts.merge = dst_base;
    opts.watch = true;
    opts.json_out = dir_ + "/land.json";
    opts.freeze_timing = true;
    (void)sim::run_campaign(spec, opts);
    ::_exit(0);
  }

  // Give the watcher time to observe (and correctly wait out) the torn
  // copy, then let the transfer finish the way rsync does: write the
  // whole file aside and rename it into place.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  {
    std::ofstream out(dst0 + ".partial", std::ios::binary);
    out << full0;
  }
  ASSERT_EQ(std::rename((dst0 + ".partial").c_str(), dst0.c_str()), 0);

  wait_ok(watcher);
  EXPECT_EQ(read_all(dir_ + "/land.json"), reference);
}

TEST_F(DistributedCampaignTest, ReportHookPrintsTheFigureOnlyInAPlainRun) {
  // run_campaign(spec, opts, figure): a plain run prints the figure, shard
  // workers and the merger print only the JSON line, and the merged line
  // is the 1-process line.
  const sim::ExperimentSpec spec = fig18_like_spec();
  int figures = 0;
  const auto report = [&](sim::SweepCliOptions opts) {
    ::testing::internal::CaptureStdout();
    sim::run_campaign(spec, opts, [&figures](const sim::EngineResult& r) {
      ++figures;
      std::printf("figure of %zu trials\n", r.trials.size());
    });
    return ::testing::internal::GetCapturedStdout();
  };
  sim::SweepCliOptions plain;
  plain.freeze_timing = true;
  const std::string plain_out = report(plain);
  EXPECT_EQ(figures, 1);
  const std::string figure_line = "figure of 6 trials\n";
  ASSERT_EQ(plain_out.compare(0, figure_line.size(), figure_line), 0)
      << plain_out;
  const std::string json_line = plain_out.substr(figure_line.size());
  ASSERT_EQ(json_line.find('\n'), json_line.size() - 1) << json_line;

  for (std::size_t i = 0; i < 2; ++i) {
    sim::SweepCliOptions worker;
    worker.resume = dir_ + "/hook";
    worker.shard = sim::ShardPlan{i, 2};
    worker.freeze_timing = true;
    const std::string out = report(worker);
    EXPECT_EQ(out.find('\n'), out.size() - 1) << out;
    EXPECT_EQ(out.rfind("{\"bench\": ", 0), 0u) << out;
  }
  sim::SweepCliOptions merger;
  merger.merge = dir_ + "/hook";
  merger.freeze_timing = true;
  EXPECT_EQ(report(merger), json_line);
  EXPECT_EQ(figures, 1);
}

}  // namespace
}  // namespace mmr
