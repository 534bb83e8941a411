#include "sim/runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "phy/link_budget.h"
#include "phy/mcs.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/workspace.h"

namespace mmr::sim {
namespace {

ScenarioConfig cfg(std::uint64_t seed) {
  ScenarioConfig c;
  c.seed = seed;
  c.sparse_room = true;
  return c;
}

TEST(Runner, ProducesExpectedSampleCount) {
  LinkWorld world = make_indoor_world(cfg(3));
  auto ctrl = make_reactive(world, cfg(3));
  RunConfig rc;
  rc.duration_s = 0.1;
  rc.tick_s = 2.5e-3;
  const RunResult r = run_experiment(world, *ctrl, rc);
  EXPECT_EQ(r.samples.size(), 40u);
  EXPECT_EQ(r.summary.num_samples, 40u);
}

TEST(Runner, InitialTrainingShowsAsUnavailable) {
  LinkWorld world = make_indoor_world(cfg(5));
  auto ctrl = make_reactive(world, cfg(5));
  RunConfig rc;
  rc.duration_s = 0.1;
  const RunResult r = run_experiment(world, *ctrl, rc);
  EXPECT_FALSE(r.samples.front().available);
  EXPECT_TRUE(r.samples.back().available);
  EXPECT_LT(r.summary.reliability, 1.0);
}

TEST(Runner, ThroughputZeroWhileUnavailable) {
  LinkWorld world = make_indoor_world(cfg(7));
  auto ctrl = make_reactive(world, cfg(7));
  RunConfig rc;
  rc.duration_s = 0.1;
  const RunResult r = run_experiment(world, *ctrl, rc);
  for (const auto& s : r.samples) {
    if (!s.available) EXPECT_EQ(s.throughput_bps, 0.0);
  }
}

TEST(Runner, SummaryConsistentWithSamples) {
  LinkWorld world = make_indoor_world(cfg(9));
  auto ctrl = make_reactive(world, cfg(9));
  RunConfig rc;
  rc.duration_s = 0.2;
  const RunResult r = run_experiment(world, *ctrl, rc);
  const auto manual = core::summarize_link(r.samples, rc.outage_snr_db,
                                           world.config().spec.bandwidth_hz);
  EXPECT_EQ(manual.reliability, r.summary.reliability);
  EXPECT_EQ(manual.mean_throughput_bps, r.summary.mean_throughput_bps);
}

TEST(Runner, ProtocolOverheadReducesThroughput) {
  LinkWorld w1 = make_indoor_world(cfg(11));
  auto c1 = make_reactive(w1, cfg(11));
  RunConfig rc1;
  rc1.duration_s = 0.2;
  rc1.protocol_overhead = 0.0;
  const RunResult r1 = run_experiment(w1, *c1, rc1);
  LinkWorld w2 = make_indoor_world(cfg(11));
  auto c2 = make_reactive(w2, cfg(11));
  RunConfig rc2 = rc1;
  rc2.protocol_overhead = 0.2;
  const RunResult r2 = run_experiment(w2, *c2, rc2);
  EXPECT_NEAR(r2.summary.mean_throughput_bps /
                  r1.summary.mean_throughput_bps,
              0.8, 0.01);
}

TEST(Runner, RejectsBadConfig) {
  LinkWorld world = make_indoor_world(cfg(13));
  auto ctrl = make_reactive(world, cfg(13));
  RunConfig rc;
  rc.duration_s = 0.0;
  EXPECT_THROW(run_experiment(world, *ctrl, rc), std::logic_error);
}

TEST(Runner, ValidateRejectsEachBadField) {
  EXPECT_NO_THROW(RunConfig{}.validate());
  const auto rejects = [](void (*edit)(RunConfig&)) {
    RunConfig rc;
    edit(rc);
    EXPECT_THROW(rc.validate(), std::logic_error);
  };
  rejects([](RunConfig& rc) { rc.duration_s = -1.0; });
  rejects([](RunConfig& rc) {
    rc.duration_s = std::numeric_limits<double>::infinity();
  });
  rejects([](RunConfig& rc) { rc.tick_s = 0.0; });
  rejects([](RunConfig& rc) {
    rc.outage_snr_db = std::numeric_limits<double>::quiet_NaN();
  });
  rejects([](RunConfig& rc) { rc.protocol_overhead = 1.0; });
  rejects([](RunConfig& rc) { rc.faults.probe_drop_prob = 2.0; });
  EXPECT_EQ(RunConfig{}.num_ticks(), 400u);
}

TEST(Runner, LinkFaultSeedPolicy) {
  const std::uint64_t link_seed = 0x1234;
  const std::uint64_t from_link =
      Rng::derive_stream_seed(link_seed, kFaultSeedStream);
  // Seed 0 always forks the link's own stream, whatever the link index.
  EXPECT_EQ(link_fault_seed(0, link_seed), from_link);
  EXPECT_EQ(link_fault_seed(0, link_seed, 5), from_link);
  // An authored seed is verbatim on link 0 and forked per link after it.
  EXPECT_EQ(link_fault_seed(77, link_seed), 77u);
  EXPECT_EQ(link_fault_seed(77, link_seed, 5), Rng::derive_stream_seed(77, 5));
  // Handover rebuild n forks the resolved seed once more.
  EXPECT_EQ(link_fault_seed(0, link_seed, 5, 2),
            Rng::derive_stream_seed(from_link, 2));
  EXPECT_EQ(link_fault_seed(77, link_seed, 5, 2),
            Rng::derive_stream_seed(Rng::derive_stream_seed(77, 5), 2));
}

// A session built through the registries runs the same bytes as a world
// and controller built by hand and handed to run_experiment.
TEST(Runner, BuiltSessionMatchesCallerOwnedLink) {
  ScenarioSpec scenario;
  scenario.name = "indoor_sparse";
  scenario.config = cfg(17);
  scenario.ue_velocity = {0.8, 0.0};
  scenario.blockers.push_back({0.05, 1.0, 26.0});
  ControllerSpec controller;
  controller.name = "mmreliable";
  RunConfig rc;
  rc.duration_s = 0.1;
  rc.faults = fault_preset("moderate");
  rc.faults.seed = 99;

  TrialWorkspace ws_built;
  LinkSession built(scenario, controller, &ws_built);
  const RunResult a = run_experiment(built, rc);

  TrialWorkspace ws_owned;
  LinkWorld world = ScenarioRegistry::instance().make(scenario);
  world.bind_workspace(&ws_owned);
  const auto ctrl =
      ControllerRegistry::instance().make(world, scenario.config, controller);
  const RunResult b = run_experiment(world, *ctrl, rc);

  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].available, b.samples[i].available) << i;
    EXPECT_EQ(a.samples[i].snr_db, b.samples[i].snr_db) << i;
    EXPECT_EQ(a.samples[i].throughput_bps, b.samples[i].throughput_bps) << i;
  }
  ASSERT_FALSE(a.fault_events.empty());
  ASSERT_EQ(a.fault_events.size(), b.fault_events.size());
  for (std::size_t i = 0; i < a.fault_events.size(); ++i) {
    EXPECT_EQ(a.fault_events[i].t_s, b.fault_events[i].t_s) << i;
    EXPECT_EQ(a.fault_events[i].kind, b.fault_events[i].kind) << i;
  }
}

class CountingController final : public core::BeamController {
 public:
  explicit CountingController(std::size_t n)
      : weights_(n, cplx{1.0 / std::sqrt(static_cast<double>(n)), 0.0}) {}
  void start(double, const core::LinkProbeInterface&) override { ++starts; }
  void step(double, const core::LinkProbeInterface&) override { ++steps; }
  const CVec& tx_weights() const override { return weights_; }
  bool link_available(double) const override { return true; }
  const char* name() const override { return "counting"; }

  int starts = 0;
  int steps = 0;

 private:
  CVec weights_;
};

TEST(Runner, SessionStartsOnFirstTickAndAfterRestart) {
  LinkWorld world = make_indoor_world(cfg(19));
  CountingController ctrl(world.config().tx_ula.num_elements);
  LinkSession link(world, ctrl);
  link.advance(0.0);
  link.advance(2.5e-3);
  link.advance(5.0e-3);
  EXPECT_EQ(ctrl.starts, 1);
  EXPECT_EQ(ctrl.steps, 2);
  link.restart();
  link.advance(0.0);
  EXPECT_EQ(ctrl.starts, 2);
  EXPECT_EQ(ctrl.steps, 2);
}

TEST(Runner, ScoreFoldsInterferenceIntoSinr) {
  LinkWorld world = make_indoor_world(cfg(23));
  CountingController ctrl(world.config().tx_ula.num_elements);
  LinkSession link(world, ctrl);
  link.advance(0.0);
  const core::LinkSample clean = link.score(0.0, 0.005);
  EXPECT_EQ(clean.snr_db, world.true_snr_db(ctrl.tx_weights()));
  // Interference equal to the noise power (INR = 1) costs 10 log10(2).
  const core::LinkSample hit =
      link.score(0.0, 0.005, world.power_for_snr(0.0));
  EXPECT_EQ(hit.snr_db, phy::sinr_db(clean.snr_db, 1.0));
  EXPECT_LT(hit.throughput_bps, clean.throughput_bps);
}

// advance() takes the tick's true SNR right after the controller step
// (so it reuses the tick's delay phasors); score() only folds in
// interference and maps the MCS. Over a live mmReliable trial on a bound
// workspace, score(t, ov, 0) must be the world's SNR under the
// controller's beam right after advance(t), and the SINR path must fold
// that same SNR exactly as before.
TEST(Runner, ScoreReturnsTheSnrAdvanceTook) {
  ScenarioSpec scenario;
  scenario.name = "indoor_sparse";
  scenario.config = cfg(29);
  scenario.ue_velocity = {0.6, 0.3};
  scenario.blockers.push_back({0.1, 1.0, 30.0});
  ControllerSpec controller;
  controller.name = "mmreliable";
  TrialWorkspace ws;
  LinkSession link(scenario, controller, &ws);
  const double bandwidth = link.world().config().spec.bandwidth_hz;
  bool saw_unavailable = false;
  bool saw_available = false;
  for (std::size_t i = 0; i < 120; ++i) {
    const double t = static_cast<double>(i) * 2.5e-3;
    link.advance(t);
    const double truth =
        link.world().true_snr_db(link.controller().tx_weights());
    const core::LinkSample clean = link.score(t, 0.005, 0.0);
    EXPECT_EQ(clean.snr_db, truth) << "tick " << i;

    const double interference = 0.7 * link.world().power_for_snr(3.0);
    const core::LinkSample hit = link.score(t, 0.005, interference);
    EXPECT_EQ(hit.snr_db,
              phy::sinr_db(truth,
                           interference / link.world().power_for_snr(0.0)))
        << "tick " << i;
    EXPECT_EQ(hit.available, clean.available) << "tick " << i;
    EXPECT_EQ(hit.throughput_bps,
              hit.available ? phy::McsTable::nr().throughput_bps(
                                  hit.snr_db, bandwidth, 0.005)
                            : 0.0)
        << "tick " << i;
    (clean.available ? saw_available : saw_unavailable) = true;
  }
  EXPECT_TRUE(saw_available);
  EXPECT_TRUE(saw_unavailable);  // the initial training sweep
}

}  // namespace
}  // namespace mmr::sim
