// Fleet recovery benchmark: how fast does a lease-based campaign fleet
// heal after losing a worker, and what does the lease TTL cost?
//
// For each lease TTL the bench stands up the PR-10 fault story end to
// end with real processes: an 8-shard queue, a 4-worker fleet, and one
// worker SIGKILLed mid-shard while holding its lease (destructors
// skipped -- exactly what a powered-off machine leaves). The surviving
// workers drain the queue with the README's fleet-drain loop, reclaim
// the dead worker's shard once its lease lapses, resume its journal,
// and seal every shard. The bench records
//
//   time_to_reclaim_s    SIGKILL -> another worker holds the shard
//   fleet_completion_s   first fork -> every shard in done/
//
// plus a post-run --merge that must replay all trials (the byte-exact
// contract itself is pinned in tests/distributed/). Expected shape:
// time-to-reclaim tracks ttl + grace (= ttl/4) closely -- the probe
// clock adds only polling latency -- so short TTLs buy fast recovery at
// the cost of more heartbeat writes (interval ttl/4).
//
// One JSON line per TTL, styled after the other bench records.
#include <cstdio>
#include <string>
#include <vector>

#include "sim/campaign_cli.h"
#include "sim/engine.h"
#include "sim/journal.h"
#include "sim/shard.h"

#ifdef __unix__

#include <csignal>
#include <chrono>
#include <cstdlib>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace mmr;

namespace {

constexpr std::size_t kShards = 8;
constexpr int kWorkers = 4;      // fleet size, including the victim
constexpr std::size_t kKillIndex = 8;  // shard 0's second owned trial

sim::ExperimentSpec fleet_spec(std::size_t trials) {
  sim::ExperimentSpec spec;
  spec.name = "fleet_recovery";
  spec.scenario.name = "indoor_sparse";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.02;
  spec.trials = trials;
  spec.jobs = 1;
  spec.seed = 10;
  spec.seed_policy = sim::SeedPolicy::kFixed;
  return spec;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

/// Claim-run-repeat until every shard is done. A nullopt claim does NOT
/// mean the work is finished -- a dead worker's shard stays leased until
/// its TTL lapses -- so the loop spins until done/ holds everything.
void drain_queue(const sim::ExperimentSpec& spec, const std::string& base,
                 const std::string& qdir, const sim::LeaseOptions& lease) {
  for (;;) {
    const auto plan = sim::ShardQueue::claim(qdir, lease);
    if (!plan.has_value()) {
      const auto c = sim::ShardQueue::counts(qdir);
      if (c.todo == 0 && c.claimed == 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    sim::ShardLeaseKeeper keeper(qdir, *plan, lease);
    sim::SweepCliOptions opts;
    opts.resume = base;
    opts.shard = *plan;
    opts.freeze_timing = true;
    (void)sim::run_campaign(spec, opts);
  }
}

struct RecoveryResult {
  double time_to_reclaim_s = 0.0;
  double fleet_completion_s = 0.0;
  std::size_t merged_trials = 0;
  std::size_t victim_checkpointed = 0;  // trials the victim saved
};

RecoveryResult run_fleet(double ttl_s, std::size_t trials) {
  char tmpl[] = "/tmp/mmr_fleetbench_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::perror("mkdtemp");
    std::exit(1);
  }
  const std::string dir = tmpl;
  const std::string base = dir + "/fleet";
  const std::string qdir = dir + "/queue";
  sim::ShardQueue::init(qdir, kShards);

  sim::LeaseOptions lease;
  lease.ttl_s = ttl_s;

  const sim::ExperimentSpec spec = fleet_spec(trials);
  sim::ExperimentSpec dying = spec;
  dying.customize = [](const sim::TrialContext& ctx, sim::ScenarioSpec&,
                       sim::ControllerSpec&, sim::RunConfig&) {
    if (ctx.index == kKillIndex) (void)::raise(SIGKILL);
  };

  const auto t0 = std::chrono::steady_clock::now();

  // The victim claims first (shard 0: trials {0, 8} of 16), checkpoints
  // trial 0, and SIGKILLs itself entering trial 8 with the lease held.
  const pid_t victim = ::fork();
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

  // The rest of the fleet starts immediately and drains everything.
  std::vector<pid_t> survivors;
  for (int w = 1; w < kWorkers; ++w) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      drain_queue(spec, base, qdir, lease);
      ::_exit(0);
    }
    survivors.push_back(pid);
  }

  int status = 0;
  (void)::waitpid(victim, &status, 0);
  const auto t_kill = std::chrono::steady_clock::now();

  // Time-to-reclaim: from the SIGKILL to the moment shard 0 is held by
  // someone else (or already retired by its reclaimer).
  const sim::ShardPlan shard0{0, kShards};
  RecoveryResult result;
  for (;;) {
    const auto holder = sim::ShardQueue::holder(qdir, shard0);
    if (holder.has_value() && holder->pid != static_cast<long>(victim)) {
      break;
    }
    if (!holder.has_value() &&
        sim::ShardQueue::counts(qdir).todo == 0) {
      break;  // reclaimed and finished between polls
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  result.time_to_reclaim_s = seconds_since(t_kill);

  for (const pid_t pid : survivors) (void)::waitpid(pid, &status, 0);
  result.fleet_completion_s = seconds_since(t0);

  {
    const sim::LoadedJournal lj = sim::read_journal_file(
        sim::shard_journal_path(base, spec.name, shard0));
    result.victim_checkpointed = 1;  // trial 0, by construction
    if (!lj.seal_intact()) {
      std::fprintf(stderr, "fleet_recovery: shard 0 never sealed\n");
      std::exit(1);
    }
  }

  // The recovered fleet's journals must still merge into a full replay.
  sim::SweepCliOptions merge_opts;
  merge_opts.merge = base;
  merge_opts.freeze_timing = true;
  const sim::EngineResult merged = sim::run_campaign(spec, merge_opts);
  result.merged_trials = merged.trials.size();

  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = sim::parse_sweep_cli(argc, argv);
  const std::size_t trials = opts.trials > 0 ? opts.trials : 16;

  for (const double ttl_s : {0.25, 0.5, 1.0, 2.0}) {
    const RecoveryResult r = run_fleet(ttl_s, trials);
    sim::LeaseOptions lease;
    lease.ttl_s = ttl_s;
    std::printf(
        "{\"bench\": \"fleet_recovery\", "
        "\"fleet\": {\"workers\": %d, \"killed_workers\": 1, "
        "\"shards\": %zu, \"trials\": %zu}, "
        "\"lease\": {\"ttl_s\": %g, \"grace_s\": %g, "
        "\"heartbeat_s\": %g}, "
        "\"recovery\": {\"time_to_reclaim_s\": %.4f, "
        "\"fleet_completion_s\": %.4f, \"merged_trials\": %zu}}\n",
        kWorkers, kShards, trials, ttl_s, lease.effective_grace_s(),
        ttl_s / 4.0, r.time_to_reclaim_s, r.fleet_completion_s,
        r.merged_trials);
    std::fflush(stdout);
  }
  return 0;
}

#else  // !__unix__

int main() {
  std::fprintf(stderr,
               "fleet_recovery: requires POSIX fork/queues; skipping\n");
  return 0;
}

#endif
