// Fig. 15 reproduction: constructive combining accuracy on the indoor
// link (LOS + strong reflector).
//  (a) SNR vs exhaustive sweep of the 2nd beam's phase, with the
//      two-probe estimate marked (paper: max ~27 dB, flat within +/-70
//      deg, up to 13 dB loss at 180 deg).
//  (b) SNR vs sweep of the 2nd beam's amplitude (paper: best near
//      -5..-3 dB; estimate -3.8 dB).
//  (c) Per-beam relative phase across 100 MHz (paper: < 1 rad variation).
//  (d) SNR gain of 2-beam / 3-beam / oracle over a single beam
//      (paper: 1.04 / 2.27 / 2.5 dB).
#include <cstdio>
#include <iostream>

#include "baselines/oracle.h"
#include "channel/wideband.h"
#include "common/angles.h"
#include "common/table.h"
#include "common/units.h"
#include "core/beam_training.h"
#include "core/multibeam.h"
#include "core/probing.h"
#include "sim/campaign_cli.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/sweep.h"

using namespace mmr;

int main(int argc, char** argv) {
  auto opts = sim::parse_sweep_cli(argc, argv);
  sim::ScenarioConfig cfg;
  cfg.seed = 7;
  sim::LinkWorld world = sim::make_indoor_world(cfg);
  const array::Ula ula = world.config().tx_ula;
  const auto link = world.probe_interface();

  // Train and estimate the relative channel with the two-probe method.
  core::TrainingConfig tc;
  tc.top_k = 3;
  tc.min_separation_rad = deg_to_rad(8.0);
  const auto training =
      core::exhaustive_training(sim::sector_codebook(ula), link.csi, tc);
  const auto powers = training.powers();
  const auto rel =
      core::estimate_relative_channels(ula, training.angles(), link.csi,
                                       &powers);
  const double est_delta_db = to_db_amp(rel[1].delta());
  const double est_sigma_deg = rad_to_deg(rel[1].sigma_rad());

  const double a0 = training.beams[0].angle_rad;
  const double a1 = training.beams[1].angle_rad;
  auto snr_with = [&](double amp, double phase) {
    const auto mb = core::synthesize_multibeam(
        ula, {{a0, cplx{1.0, 0.0}}, {a1, std::polar(amp, phase)}});
    return world.true_snr_db(mb.weights);
  };

  std::printf("=== Fig. 15a: SNR vs 2nd-beam phase (amplitude fixed at "
              "estimate) ===\n");
  {
    Table t({"phase (deg)", "SNR (dB)"});
    double best_snr = -1e9, best_phase = 0.0;
    for (int deg = -180; deg <= 180; deg += 15) {
      const double snr = snr_with(rel[1].delta(), deg_to_rad(deg));
      if (snr > best_snr) {
        best_snr = snr;
        best_phase = deg;
      }
      t.add_row({Table::num(deg, 0), Table::num(snr, 2)});
    }
    t.print(std::cout);
    std::printf("sweep max: %.2f dB at %+.0f deg\n", best_snr, best_phase);
    std::printf("two-probe estimate: sigma = %+.1f deg -> coefficient phase "
                "%+.1f deg, SNR %.2f dB\n",
                est_sigma_deg, -est_sigma_deg,
                snr_with(rel[1].delta(), -rel[1].sigma_rad()));
  }

  std::printf("\n=== Fig. 15b: SNR vs 2nd-beam amplitude (phase fixed at "
              "estimate) ===\n");
  {
    Table t({"amplitude (dB)", "SNR (dB)"});
    for (double db = -10.0; db <= 2.01; db += 1.0) {
      t.add_row({Table::num(db, 0),
                 Table::num(snr_with(from_db_amp(db), -rel[1].sigma_rad()), 2)});
    }
    t.print(std::cout);
    std::printf("two-probe amplitude estimate: %.1f dB (paper: -3.8 dB "
                "estimate in a -5..-3 dB optimum)\n", est_delta_db);
  }

  std::printf("\n=== Fig. 15c: relative phase stability over 100 MHz ===\n");
  {
    // True per-subcarrier ratio between the two trained directions.
    const channel::WidebandSpec spec{28e9, 100e6, 32};
    const CVec csi0 = channel::effective_csi(
        world.paths(), ula, array::single_beam_weights(ula, a0), spec,
        channel::RxFrontend::omni());
    const CVec csi1 = channel::effective_csi(
        world.paths(), ula, array::single_beam_weights(ula, a1), spec,
        channel::RxFrontend::omni());
    double min_ph = 1e9, max_ph = -1e9;
    std::printf("%12s %16s\n", "f (MHz)", "rel phase (rad)");
    for (std::size_t k = 0; k < spec.num_subcarriers; k += 4) {
      const double ph = std::arg(csi1[k] / csi0[k]);
      min_ph = std::min(min_ph, ph);
      max_ph = std::max(max_ph, ph);
      std::printf("%12.1f %16.3f\n", spec.freq_offset(k) / 1e6, ph);
    }
    std::printf("variation across 100 MHz: %.3f rad (paper: < 1 rad)\n",
                max_ph - min_ph);
  }

  std::printf("\n=== Fig. 15d: SNR gain over single beam ===\n");
  {
    const auto single =
        core::synthesize_multibeam(ula, {{a0, cplx{1.0, 0.0}}});
    const auto two = core::synthesize_multibeam(
        ula, core::constructive_components({a0, a1},
                                           {rel[0].ratio, rel[1].ratio}));
    const double snr_single = world.true_snr_db(single.weights);
    double snr_three = world.true_snr_db(two.weights);
    if (training.beams.size() >= 3) {
      const auto three = core::synthesize_multibeam(
          ula, core::constructive_components(
                   training.angles(),
                   {rel[0].ratio, rel[1].ratio, rel[2].ratio}));
      snr_three = world.true_snr_db(three.weights);
    }
    baselines::Oracle oracle([&] { return world.true_per_antenna_channel(); });
    oracle.start(0.0, link);
    Table t({"scheme", "SNR gain vs single beam (dB)", "paper (dB)"});
    t.add_row({"2-beam constructive",
               Table::num(world.true_snr_db(two.weights) - snr_single, 2),
               "1.04"});
    t.add_row({"3-beam constructive", Table::num(snr_three - snr_single, 2),
               "2.27"});
    t.add_row({"oracle (per-antenna conj.)",
               Table::num(world.true_snr_db(oracle.tx_weights()) - snr_single, 2),
               "2.50"});
    t.print(std::cout);
  }

  std::printf("\n=== Fig. 15 Monte-Carlo: 2-beam link across channel "
              "realizations ===\n");
  {
    // The scans above use the paper's single seed-7 room; this campaign
    // runs the full 2-beam controller over many independent rooms (one
    // seed-derived stream per trial) to show the constructive-combining
    // throughput is not a one-seed artifact. --jobs parallelizes the
    // trials with bit-identical output.
    sim::ExperimentSpec spec;
    spec.name = "fig15_montecarlo_2beam";
    spec.scenario.name = "indoor";
    spec.controller.name = "mmreliable";
    spec.run.duration_s = 0.5;
    spec.trials = opts.trials > 0 ? opts.trials : 8;
    spec.seed = opts.seed > 0 ? opts.seed : 7;
    sim::run_campaign(spec, opts, [&](const sim::EngineResult& res) {
      std::printf("%zu rooms: median throughput %.0f Mbps, median reliability "
                  "%.3f (sweep %.2f s wall, %.2fx speedup with %zu jobs)\n",
                  spec.trials, res.aggregate.median_throughput_bps / 1e6,
                  res.aggregate.median_reliability, res.timing.wall_s,
                  res.timing.speedup(), res.timing.jobs);
    });
  }
  return 0;
}
