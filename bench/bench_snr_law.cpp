// Section 1 / Section 3.2 reproduction: the multi-beam SNR law.
// For a two-path channel with relative amplitude delta, the optimal
// constructive multi-beam gains 1 + delta^2 over a single beam (Eq. 9);
// two equal paths give exactly 3 dB (the introduction's example). We check
// the closed form against a full array/channel simulation.
#include <cstdio>
#include <iostream>

#include "array/geometry.h"
#include "channel/wideband.h"
#include "common/angles.h"
#include "common/table.h"
#include "common/units.h"
#include "core/multibeam.h"
#include "sim/campaign_cli.h"

using namespace mmr;

namespace {

// Simulated multi-beam gain for a 2-path channel with the given relative
// amplitude/phase, using real array weights and the wideband channel
// evaluator with negligible delay spread.
double simulated_gain_db(double delta, double sigma) {
  const array::Ula ula{16, 0.5};
  const channel::WidebandSpec spec{28e9, 400e6, 64};
  channel::Path p0;
  p0.aod_rad = deg_to_rad(-18.0);
  p0.gain = cplx{1e-4, 0.0};
  p0.is_los = true;
  channel::Path p1;
  p1.aod_rad = deg_to_rad(24.0);
  p1.gain = std::polar(1e-4 * delta, sigma);
  p1.delay_s = 0.1e-9;
  const std::vector<channel::Path> paths{p0, p1};

  const auto rx = channel::RxFrontend::omni();
  const core::MultiBeam single =
      core::synthesize_multibeam(ula, {{p0.aod_rad, cplx{1.0, 0.0}}});
  const core::MultiBeam multi = core::synthesize_multibeam(
      ula, core::constructive_components({p0.aod_rad, p1.aod_rad},
                                         {cplx{1.0, 0.0},
                                          std::polar(delta, sigma)}));
  const double ps =
      channel::received_power(paths, ula, single.weights, spec, rx);
  const double pm =
      channel::received_power(paths, ula, multi.weights, spec, rx);
  return to_db(pm / ps);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = sim::parse_sweep_cli(argc, argv);
  std::printf("=== Multi-beam SNR law: gain = 1 + delta^2 (Eq. 9) ===\n");
  Table t({"delta (dB)", "theory gain (dB)", "simulated gain (dB)", "error"});
  for (double delta_db : {-20.0, -10.0, -6.0, -3.0, -1.0, 0.0}) {
    const double delta = from_db_amp(delta_db);
    const double theory = to_db(1.0 + delta * delta);
    const double sim = simulated_gain_db(delta, 0.7);
    t.add_row({Table::num(delta_db, 0), Table::num(theory, 2),
               Table::num(sim, 2), Table::num(sim - theory, 2)});
  }
  t.print(std::cout);

  std::printf("\nIntroduction example: two equal paths (delta = 1)\n");
  std::printf("  theory: 3.01 dB, simulated: %.2f dB\n",
              simulated_gain_db(1.0, 0.0));

  std::printf("\nSingle-path channel: single beam is optimal (Sec. 3.2)\n");
  std::printf("  multi-beam 'gain' with no second path (delta -> 0): "
              "%.2f dB (should be ~0)\n",
              simulated_gain_db(1e-4, 0.0));

  std::printf("\n=== the law in a traced room: controller gains (engine) "
              "===\n");
  {
    // The Eq. 9 gain assumes perfect estimates; this brackets the real
    // controller between the genie (oracle) and a frozen single beam on
    // the same ray-traced room.
    const std::vector<std::string> ctrls = {"oracle", "mmreliable",
                                            "single_frozen"};
    sim::ExperimentSpec spec;
    spec.name = "snr_law_controller_gains";
    spec.scenario.name = "indoor";
    spec.scenario.config.seed = 7;
    spec.run.duration_s = 0.2;
    spec.trials = ctrls.size();
    spec.seed = 7;
    spec.seed_policy = sim::SeedPolicy::kFixed;
    spec.customize = [&ctrls](const sim::TrialContext& ctx,
                              sim::ScenarioSpec& /*scenario*/,
                              sim::ControllerSpec& controller,
                              sim::RunConfig& /*run*/) {
      controller.name = ctrls[ctx.index];
    };
    spec.label = [&ctrls](const sim::TrialContext& ctx) {
      return ctrls[ctx.index];
    };
    sim::run_campaign(spec, opts, [&](const sim::EngineResult& res) {
      for (std::size_t i = 0; i < ctrls.size(); ++i) {
        std::printf("%14s: spectral efficiency %.2f bit/s/Hz, "
                    "mean throughput %.0f Mbps\n",
                    ctrls[i].c_str(),
                    res.trials[i].value.mean_spectral_efficiency,
                    res.trials[i].value.mean_throughput_bps / 1e6);
      }
    });
  }
  return 0;
}
