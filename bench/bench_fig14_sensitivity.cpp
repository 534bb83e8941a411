// Fig. 14 reproduction: sensitivity of the 2-beam SNR gain to estimation
// errors in the second beam's phase and amplitude. True channel: second
// path at -3 dB with -40 degree relative phase. Paper anchors: peak gain
// 1.76 dB at perfect estimates; gain stays above single-beam for phase
// errors up to +/- 75 degrees; a 180-degree error destroys the link.
#include <cstdio>
#include <iostream>

#include "common/angles.h"
#include "common/table.h"
#include "common/units.h"
#include "core/multibeam.h"
#include "sim/campaign_cli.h"

using namespace mmr;

namespace {

/// The closed-form grids: two_beam_gain() over estimate errors.
void print_closed_form_sensitivity() {
  const double delta_true = from_db_amp(-3.0);
  const double sigma_true = deg_to_rad(-40.0);

  std::printf("=== Fig. 14: 2-beam SNR gain vs estimate errors ===\n");
  std::printf("(true channel: delta = -3 dB, sigma = -40 deg; cells in dB "
              "w.r.t. single beam)\n\n");
  // 2-D grid: rows = amplitude estimate (dB), cols = phase error (deg).
  std::printf("%10s", "amp\\phase");
  for (int perr = -180; perr <= 180; perr += 30) std::printf("%7d", perr);
  std::printf("\n");
  for (double amp_db = -20.0; amp_db <= 2.01; amp_db += 2.0) {
    std::printf("%10.0f", amp_db);
    for (int perr = -180; perr <= 180; perr += 30) {
      const double g = core::two_beam_gain(
          delta_true, sigma_true, from_db_amp(amp_db),
          sigma_true + deg_to_rad(perr));
      std::printf("%7.2f", to_db(g));
    }
    std::printf("\n");
  }

  std::printf("\nAnchors:\n");
  const double peak =
      core::two_beam_gain(delta_true, sigma_true, delta_true, sigma_true);
  std::printf("  peak gain at perfect estimate: %.2f dB (paper: 1.76)\n",
              to_db(peak));
  Table t({"phase error (deg)", "gain (dB)", "beats single beam?"});
  for (double err : {0.0, 30.0, 60.0, 75.0, 90.0, 120.0, 180.0}) {
    const double g = core::two_beam_gain(delta_true, sigma_true, delta_true,
                                         sigma_true + deg_to_rad(err));
    t.add_row({Table::num(err, 0), Table::num(to_db(g), 2),
               g > 1.0 ? "yes" : "no"});
  }
  t.print(std::cout);
  std::printf("paper shape: tolerant to +/-75 deg phase error and -20 dB\n"
              "amplitude error; 180 deg phase error collapses the gain.\n");
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = sim::parse_sweep_cli(argc, argv);
  // The grids are closed-form; this campaign measures how the end-to-end
  // controller degrades as the link margin shrinks (estimation errors
  // bite hardest when the margin is thin).
  const std::vector<double> powers_dbm = {20.0, 14.0, 10.0};
  sim::ExperimentSpec spec;
  spec.name = "fig14_margin_sensitivity";
  spec.scenario.name = "indoor";
  spec.scenario.config.seed = 9;
  spec.run.duration_s = 0.25;
  spec.trials = powers_dbm.size();
  spec.seed = 9;
  spec.seed_policy = sim::SeedPolicy::kFixed;
  spec.customize = [&powers_dbm](const sim::TrialContext& ctx,
                                 sim::ScenarioSpec& scenario,
                                 sim::ControllerSpec& /*controller*/,
                                 sim::RunConfig& /*run*/) {
    scenario.config.tx_power_dbm = powers_dbm[ctx.index];
  };
  spec.label = [&powers_dbm](const sim::TrialContext& ctx) {
    return std::to_string(static_cast<int>(powers_dbm[ctx.index])) + "dBm";
  };
  // Shard workers and the merger print only the JSON line, so the whole
  // figure, closed-form grids included, is the report hook.
  sim::run_campaign(spec, opts, [&](const sim::EngineResult& res) {
    print_closed_form_sensitivity();
    std::printf("\n=== link-margin sensitivity of the full loop (engine) "
                "===\n");
    for (std::size_t i = 0; i < powers_dbm.size(); ++i) {
      std::printf("%5.0f dBm: reliability %.3f, mean throughput %.0f Mbps\n",
                  powers_dbm[i], res.trials[i].value.reliability,
                  res.trials[i].value.mean_throughput_bps / 1e6);
    }
  });
  return 0;
}
