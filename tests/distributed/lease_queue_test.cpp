// Lease-based shard reclamation: a claim stamps a host/pid lease,
// heartbeats renew it, stale leases are auto-reclaimed by the next
// claimer, fresh leases refuse requeue by naming the live holder, and
// staleness is measured on the queue filesystem's clock (probe file), so
// cross-machine wall-clock skew cannot fake a death.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "sim/campaign_cli.h"
#include "sim/shard.h"

namespace mmr::sim {
namespace {

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

class LeaseQueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifndef __unix__
    GTEST_SKIP() << "ShardQueue requires a POSIX filesystem";
#endif
    char tmpl[] = "/tmp/mmr_lease_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
    dir_ = root_ + "/queue";
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + root_ + "'";
    (void)std::system(cmd.c_str());
  }

#ifdef __unix__
  /// Shift a claimed shard's lease mtime by `seconds` (negative =
  /// backdate, positive = future-date for the clock-skew tests).
  void shift_lease(const ShardPlan& plan, double seconds) {
    const std::string path = dir_ + "/claimed/" + plan.suffix();
    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0) << path;
    struct timespec times[2];
    times[0] = st.st_atim;
    times[1] = st.st_mtim;
    times[1].tv_sec += static_cast<time_t>(seconds);
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
  }
#endif

  std::string root_, dir_;
};

TEST_F(LeaseQueueTest, ClaimStampsThisProcessAsHolder) {
  ShardQueue::init(dir_, 2);
  const auto plan = ShardQueue::claim(dir_);
  ASSERT_TRUE(plan.has_value());
  const auto lease = ShardQueue::holder(dir_, *plan);
  ASSERT_TRUE(lease.has_value());
#ifdef __unix__
  EXPECT_EQ(lease->pid, static_cast<long>(::getpid()));
#endif
  EXPECT_FALSE(lease->host.empty());
  EXPECT_EQ(lease->renewals, 0u);
}

TEST_F(LeaseQueueTest, RenewBumpsTheRenewalCountAndRefreshesTheLease) {
  ShardQueue::init(dir_, 1);
  const auto plan = ShardQueue::claim(dir_);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(ShardQueue::renew(dir_, *plan));
  EXPECT_TRUE(ShardQueue::renew(dir_, *plan));
  const auto lease = ShardQueue::holder(dir_, *plan);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->renewals, 2u);
}

TEST_F(LeaseQueueTest, RenewOfAForeignLeaseReturnsFalse) {
  ShardQueue::init(dir_, 1);
  const auto plan = ShardQueue::claim(dir_);
  ASSERT_TRUE(plan.has_value());
  // The shard lapsed and was re-claimed by a worker on another machine:
  // its lease now names that holder. Our renewal must report the loss
  // instead of silently overwriting the new holder's lease.
  std::ofstream(dir_ + "/claimed/" + plan->suffix())
      << "host elsewhere\npid 12345\nrenewals 3\n";
  EXPECT_FALSE(ShardQueue::renew(dir_, *plan));
}

TEST_F(LeaseQueueTest, RenewOfAnUnclaimedShardReturnsFalse) {
  ShardQueue::init(dir_, 1);
  EXPECT_FALSE(ShardQueue::renew(dir_, ShardPlan{0, 1}));
}

TEST_F(LeaseQueueTest, StaleLeaseIsAutoReclaimedByTheNextClaimer) {
  ShardQueue::init(dir_, 2);
  const auto first = ShardQueue::claim(dir_);
  const auto second = ShardQueue::claim(dir_);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(ShardQueue::claim(dir_).has_value());
  // First worker "dies": its lease ages past ttl + grace.
  shift_lease(*first, -400.0);
  const auto reclaimed = ShardQueue::claim(dir_);
  ASSERT_TRUE(reclaimed.has_value());
  EXPECT_EQ(*reclaimed, *first);
  // The second worker's lease is fresh; nothing else to claim.
  EXPECT_FALSE(ShardQueue::claim(dir_).has_value());
}

TEST_F(LeaseQueueTest, ShortTtlReclaimsWithoutMtimeForgery) {
  ShardQueue::init(dir_, 1);
  LeaseOptions opts;
  opts.ttl_s = 0.05;
  opts.grace_s = 0.0125;
  const auto plan = ShardQueue::claim(dir_, opts);
  ASSERT_TRUE(plan.has_value());
  // No heartbeat: after ttl + grace the shard is genuinely reclaimable.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const auto reclaimed = ShardQueue::claim(dir_, opts);
  ASSERT_TRUE(reclaimed.has_value());
  EXPECT_EQ(*reclaimed, *plan);
}

TEST_F(LeaseQueueTest, FutureDatedLeaseIsNotStale) {
  // Clock-skew guard: a worker on a fast-clocked machine writes lease
  // mtimes in the probe's future. That must read as FRESH -- reclaiming
  // it would steal a live worker's shard.
  ShardQueue::init(dir_, 1);
  LeaseOptions opts;
  opts.ttl_s = 0.05;
  opts.grace_s = 0.0125;
  const auto plan = ShardQueue::claim(dir_, opts);
  ASSERT_TRUE(plan.has_value());
  shift_lease(*plan, 3600.0);  // one hour in the future
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(ShardQueue::claim(dir_, opts).has_value());
  EXPECT_THROW(ShardQueue::requeue(dir_, *plan, opts), LeaseHeldError);
}

TEST_F(LeaseQueueTest, RequeueRefusesAFreshlyHeldShardNamingTheHolder) {
  ShardQueue::init(dir_, 1);
  const auto plan = ShardQueue::claim(dir_);
  ASSERT_TRUE(plan.has_value());
  try {
    ShardQueue::requeue(dir_, *plan);
    FAIL() << "expected LeaseHeldError";
  } catch (const LeaseHeldError& e) {
    const auto lease = ShardQueue::holder(dir_, *plan);
    ASSERT_TRUE(lease.has_value());
    // The error names the live holder so an operator knows what to stop.
    EXPECT_NE(std::string(e.what()).find(lease->describe()),
              std::string::npos)
        << e.what();
  }
}

TEST_F(LeaseQueueTest, RequeueIsIdempotentWhenAlreadyInTodo) {
  ShardQueue::init(dir_, 2);
  // Never claimed: both requeues are no-ops and both shards stay
  // claimable exactly once.
  ShardQueue::requeue(dir_, ShardPlan{0, 2});
  ShardQueue::requeue(dir_, ShardPlan{0, 2});
  EXPECT_TRUE(ShardQueue::claim(dir_).has_value());
  EXPECT_TRUE(ShardQueue::claim(dir_).has_value());
  EXPECT_FALSE(ShardQueue::claim(dir_).has_value());
}

TEST_F(LeaseQueueTest, CompleteRetiresAShardForGood) {
  ShardQueue::init(dir_, 1);
  const auto plan = ShardQueue::claim(dir_);
  ASSERT_TRUE(plan.has_value());
  ShardQueue::complete(dir_, *plan);
  ShardQueue::complete(dir_, *plan);  // idempotent
  // A done shard is neither claimable nor requeueable back to life.
  EXPECT_FALSE(ShardQueue::claim(dir_).has_value());
  ShardQueue::requeue(dir_, *plan);  // no-op, not an error
  EXPECT_FALSE(ShardQueue::claim(dir_).has_value());
  const auto c = ShardQueue::counts(dir_);
  EXPECT_EQ(c.todo, 0u);
  EXPECT_EQ(c.claimed, 0u);
  EXPECT_EQ(c.done, 1u);
}

TEST_F(LeaseQueueTest, CountsTrackTheQueuePopulations) {
  ShardQueue::init(dir_, 3);
  auto c = ShardQueue::counts(dir_);
  EXPECT_EQ(c.todo, 3u);
  const auto a = ShardQueue::claim(dir_);
  const auto b = ShardQueue::claim(dir_);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ShardQueue::complete(dir_, *a);
  c = ShardQueue::counts(dir_);
  EXPECT_EQ(c.todo, 1u);
  EXPECT_EQ(c.claimed, 1u);
  EXPECT_EQ(c.done, 1u);
}

TEST_F(LeaseQueueTest, LeaseKeeperHeartbeatsAndCompletesOnDestruction) {
  ShardQueue::init(dir_, 1);
  LeaseOptions opts;
  opts.ttl_s = 0.08;  // heartbeat every 20ms
  const auto plan = ShardQueue::claim(dir_, opts);
  ASSERT_TRUE(plan.has_value());
  {
    ShardLeaseKeeper keeper(dir_, *plan, opts);
    // Across several TTLs the lease must stay fresh: heartbeats land.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_FALSE(keeper.lost());
    EXPECT_FALSE(ShardQueue::claim(dir_, opts).has_value())
        << "heartbeat failed to keep the lease fresh";
    const auto lease = ShardQueue::holder(dir_, *plan);
    ASSERT_TRUE(lease.has_value());
    EXPECT_GT(lease->renewals, 0u);
  }
  // Normal destruction marks the shard done.
  const auto c = ShardQueue::counts(dir_);
  EXPECT_EQ(c.done, 1u);
  EXPECT_EQ(c.claimed, 0u);
}

TEST_F(LeaseQueueTest, ParsingTheQueueFlagsClaimsNoShard) {
  // bench_network and bench_streaming parse the shared grammar, then
  // reject the distributed flags and return. Parsing must not claim a
  // shard (which the options' destruction would then mark done) that
  // the bench never runs: the fleet's later --merge could never cover
  // the campaign. Nor may it create a queue that does not exist yet.
  ShardQueue::init(dir_, 2);  // a live fleet's queue
  const std::string fresh = root_ + "/fresh";
  for (const std::string& queue : {dir_, fresh}) {
    std::vector<std::string> args = {"bench_network", "--shard-queue",
                                     queue,           "--shards",
                                     "2",             "--resume",
                                     root_ + "/b"};
    auto argv = argv_of(args);
    const SweepCliOptions opts =
        parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
    EXPECT_FALSE(opts.shard.enabled());
    EXPECT_TRUE(opts.shard.enabled() || !opts.shard_queue.empty() ||
                !opts.merge.empty())
        << "the benches' rejection must see the queue flag";
  }
  const ShardQueue::Counts c = ShardQueue::counts(dir_);
  EXPECT_EQ(c.todo, 2u);
  EXPECT_EQ(c.claimed, 0u);
  EXPECT_EQ(c.done, 0u);
  EXPECT_FALSE(std::filesystem::exists(fresh))
      << "parsing --shards created the queue";
}

TEST_F(LeaseQueueTest, FirstCampaignClaimsAndLaterCampaignsReuseTheShard) {
  std::vector<std::string> args = {"prog",     "--shard-queue",   dir_,
                                   "--shards", "2",               "--resume",
                                   root_ + "/b", "--freeze-timing"};
  auto argv = argv_of(args);
  ExperimentSpec spec;
  spec.name = "queue_first";
  spec.scenario.name = "indoor";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.02;
  spec.trials = 2;
  {
    SweepCliOptions opts =
        parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
    (void)run_campaign(spec, opts);
    EXPECT_EQ(opts.shard, (ShardPlan{0, 2}));
    spec.name = "queue_second";
    (void)run_campaign(spec, opts);
    EXPECT_EQ(opts.shard, (ShardPlan{0, 2}));
    const ShardQueue::Counts c = ShardQueue::counts(dir_);
    EXPECT_EQ(c.todo, 1u);
    EXPECT_EQ(c.claimed, 1u);
    for (const char* name : {"queue_first", "queue_second"}) {
      EXPECT_TRUE(std::filesystem::exists(
          shard_journal_path(root_ + "/b", name, ShardPlan{0, 2})))
          << name;
    }
  }
  // The options held the lease; destroying them retires the shard.
  const ShardQueue::Counts c = ShardQueue::counts(dir_);
  EXPECT_EQ(c.todo, 1u);
  EXPECT_EQ(c.claimed, 0u);
  EXPECT_EQ(c.done, 1u);
}

}  // namespace
}  // namespace mmr::sim
