// Section 4.4 / Fig. 12 reproduction: directional UE under rotation and
// translation. A 4-element UE beamforms back at the gNB; the session must
// (1) classify the motion kind from the per-beam drop pattern, and
// (2) realign the right end(s): rotation turns only the UE beams,
// translation turns gNB and UE beams in opposite senses.
#include <cstdio>
#include <iostream>

#include "channel/wideband.h"
#include "common/angles.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/ue_session.h"
#include "phy/estimator.h"
#include "phy/link_budget.h"
#include "sim/campaign_cli.h"

using namespace mmr;

namespace {

// Controlled 2-path world whose AoD/AoA we perturb directly (the paper
// turns its arrays on a gantry).
struct JointWorld {
  std::vector<channel::Path> paths;
  array::Ula gnb_ula{8, 0.5};
  array::Ula ue_ula{8, 0.5};
  channel::WidebandSpec spec{28e9, 400e6, 64};
  phy::ChannelEstimator est;

  explicit JointWorld(Rng rng)
      : est([] {
              phy::EstimatorConfig c;
              c.noise_gain_0db =
                  phy::noise_reference(phy::LinkBudget::paper_indoor());
              c.pilot_averaging_gain = 30.0;
              return c;
            }(),
            rng) {
    channel::Path p0;
    p0.aod_rad = deg_to_rad(-5.0);
    p0.aoa_rad = deg_to_rad(8.0);
    p0.gain = cplx{1e-4, 0.0};
    p0.is_los = true;
    channel::Path p1;
    p1.aod_rad = deg_to_rad(28.0);
    p1.aoa_rad = deg_to_rad(-25.0);
    p1.gain = std::polar(0.6e-4, 1.0);
    p1.delay_s = 6.0e-9;
    paths = {p0, p1};
  }

  core::JointProbeFns probe() {
    core::JointProbeFns fns;
    fns.csi = [this](const CVec& tx, const CVec& rx) {
      const auto rxf = channel::RxFrontend::beam(ue_ula, rx);
      return est.estimate(
          channel::effective_csi(paths, gnb_ula, tx, spec, rxf));
    };
    fns.cir = [this](const CVec& tx, const CVec& rx, std::size_t taps) {
      const auto rxf = channel::RxFrontend::beam(ue_ula, rx);
      return channel::effective_cir(paths, gnb_ula, tx, spec, taps, rxf);
    };
    return fns;
  }

  void rotate_ue(double rad) {
    // A rigid body rotation slides EVERY arrival by the same angle.
    for (auto& p : paths) p.aoa_rad += rad;
  }
  void translate(double rad) {
    // Translation misaligns departures and arrivals in opposite senses,
    // and (unlike rotation) by a PATH-DEPENDENT amount: the direct path
    // swings with the full geometry while a reflection further from the
    // motion axis swings less (paper Figs. 10 and 12).
    paths[0].aod_rad += rad;
    paths[0].aoa_rad -= rad;
    paths[1].aod_rad += rad * 0.35;
    paths[1].aoa_rad -= rad * 0.35;
  }

  double snr_db(const CVec& tx, const CVec& rx) const {
    const auto rxf = channel::RxFrontend::beam(ue_ula, rx);
    const double p =
        channel::received_power(paths, gnb_ula, tx, spec, rxf);
    return phy::LinkBudget::paper_indoor().snr_db(p);
  }
};

const char* motion_name(core::MotionKind k) {
  switch (k) {
    case core::MotionKind::kNone: return "none";
    case core::MotionKind::kRotation: return "rotation";
    case core::MotionKind::kTranslation: return "translation";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = sim::parse_sweep_cli(argc, argv);
  std::printf("=== Section 4.4: directional UE, joint beam management ===\n");
  Table t({"event", "true motion", "classified", "SNR before (dB)",
           "SNR dropped (dB)", "SNR recovered (dB)"});

  for (int which = 0; which < 2; ++which) {
    JointWorld world(Rng(17 + which));
    core::UeSessionConfig cfg;
    cfg.ue_ula = world.ue_ula;
    cfg.gnb_ula = world.gnb_ula;
    core::DirectionalUeSession session(cfg);
    const auto link = world.probe();
    session.train(link);
    const double snr0 = world.snr_db(session.tx_weights(), session.rx_weights());

    const bool rotate = (which == 0);
    if (rotate) {
      world.rotate_ue(deg_to_rad(8.0));
    } else {
      world.translate(deg_to_rad(6.0));
    }
    const double snr_dropped =
        world.snr_db(session.tx_weights(), session.rx_weights());

    // Maintenance steps; the FIRST step sees the drop and classifies.
    core::MotionKind classified = core::MotionKind::kNone;
    for (int i = 0; i < 6; ++i) {
      session.step(0.02 * (i + 1), link);
      if (i == 0) classified = session.last_motion();
    }
    const double snr_after =
        world.snr_db(session.tx_weights(), session.rx_weights());

    t.add_row({rotate ? "UE rotates 8 deg" : "UE translates (6 deg slide)",
               rotate ? "rotation" : "translation",
               motion_name(classified), Table::num(snr0, 1),
               Table::num(snr_dropped, 1), Table::num(snr_after, 1)});
  }
  t.print(std::cout);
  std::printf("\npaper shape: both ends realigned; rotation fixed by turning\n"
              "only the UE beams, translation by turning gNB and UE beams in\n"
              "opposite senses. Recovered SNR approaches the pre-motion level.\n");

  std::printf("\n=== gNB-side view of a rotating UE (engine) ===\n");
  {
    // The gantry table above is the joint-session micro-benchmark; this
    // runs the full gNB loop against a static vs continuously rotating UE
    // through the registered indoor scenario.
    sim::ExperimentSpec spec;
    spec.name = "ue_directional_rotation";
    spec.scenario.name = "indoor";
    spec.scenario.config.seed = 17;
    spec.run.duration_s = 0.25;
    spec.trials = 2;
    spec.seed = 17;
    spec.seed_policy = sim::SeedPolicy::kFixed;
    spec.customize = [](const sim::TrialContext& ctx,
                        sim::ScenarioSpec& scenario,
                        sim::ControllerSpec& /*controller*/,
                        sim::RunConfig& /*run*/) {
      scenario.ue_rotation_rate_rad_s =
          ctx.index == 0 ? 0.0 : deg_to_rad(45.0);
    };
    spec.label = [](const sim::TrialContext& ctx) {
      return std::string(ctx.index == 0 ? "static" : "rotating_45dps");
    };
    sim::run_campaign(spec, opts, [&](const sim::EngineResult& res) {
      for (std::size_t i = 0; i < res.trials.size(); ++i) {
        std::printf("%16s: reliability %.3f, mean throughput %.0f Mbps\n",
                    i == 0 ? "static UE" : "45 deg/s rotation",
                    res.trials[i].value.reliability,
                    res.trials[i].value.mean_throughput_bps / 1e6);
      }
    });
  }
  return 0;
}
