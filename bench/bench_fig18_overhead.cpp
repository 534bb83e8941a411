// Fig. 18d reproduction: beam-management probing overhead vs gNB antenna
// count. Traditional 5G NR beam scanning pays SSBs proportional to (at
// best log of) the number of beams -- 3 ms at 8 antennas growing to 6 ms
// at 64 -- while mmReliable's refinement costs a fixed 3 probes (2-beam)
// or 5 probes (3-beam) of one CSI-RS slot each, independent of the array.
#include <cstdio>
#include <iostream>

#include "common/table.h"
#include "phy/reference_signals.h"
#include "sim/campaign_cli.h"

using namespace mmr;

int main(int argc, char** argv) {
  auto opts = sim::parse_sweep_cli(argc, argv);
  const phy::ReferenceSignalConfig rs;
  std::printf("=== Fig. 18d: probing overhead vs number of antennas ===\n");
  Table t({"antennas", "5G NR fast scan (ms)", "mmReliable 2-beam (ms)",
           "mmReliable 3-beam (ms)"});
  for (std::size_t n : {8, 16, 32, 64}) {
    t.add_row({Table::num(static_cast<double>(n), 0),
               Table::num(phy::fast_training_airtime_s(rs, n) * 1e3, 2),
               Table::num(phy::mmreliable_refinement_airtime_s(rs, 2) * 1e3, 2),
               Table::num(phy::mmreliable_refinement_airtime_s(rs, 3) * 1e3, 2)});
  }
  t.print(std::cout);

  std::printf("\nOverhead fractions at a 20 ms management period:\n");
  Table f({"scheme", "airtime (ms)", "overhead (%)"});
  f.add_row({"5G NR scan, 64 antennas",
             Table::num(phy::fast_training_airtime_s(rs, 64) * 1e3, 2),
             Table::num(100.0 * phy::overhead_fraction(
                                    phy::fast_training_airtime_s(rs, 64),
                                    20e-3), 1)});
  f.add_row({"mmReliable 3-beam refinement",
             Table::num(phy::mmreliable_refinement_airtime_s(rs, 3) * 1e3, 2),
             Table::num(100.0 * phy::overhead_fraction(
                                    phy::mmreliable_refinement_airtime_s(rs, 3),
                                    20e-3), 1)});
  f.add_row({"SSB burst (64 dirs) once per second",
             Table::num(phy::ssb_burst_airtime_s(rs, 64) * 1e3, 2),
             Table::num(100.0 * phy::overhead_fraction(
                                    phy::ssb_burst_airtime_s(rs, 64), 1.0), 2)});
  f.print(std::cout);
  std::printf("paper anchors: 3 ms @ 8 antennas -> 6 ms @ 64 for 5G NR;\n"
              "0.4 / 0.6 ms for mmReliable 2-/3-beam, antenna-independent;\n"
              "0.5%% total overhead with 1 s SSB periodicity.\n");

  std::printf("\n=== refinement cost in a live link: 2 vs 3 beams (engine) "
              "===\n");
  {
    // The airtime table is analytic; this runs the controller with both
    // beam budgets so the extra probes' throughput cost shows up in the
    // delivered rate.
    sim::ExperimentSpec spec;
    spec.name = "fig18d_beam_overhead_link";
    spec.scenario.name = "indoor";
    spec.scenario.config.seed = 100;
    spec.run.duration_s = 0.25;
    spec.trials = 2;
    spec.seed = 100;
    spec.seed_policy = sim::SeedPolicy::kFixed;
    spec.customize = [](const sim::TrialContext& ctx,
                        sim::ScenarioSpec& /*scenario*/,
                        sim::ControllerSpec& controller,
                        sim::RunConfig& /*run*/) {
      controller.max_beams = ctx.index == 0 ? 2 : 3;
    };
    spec.label = [](const sim::TrialContext& ctx) {
      return std::to_string(ctx.index == 0 ? 2 : 3) + "-beam";
    };
    sim::run_campaign(spec, opts, [&](const sim::EngineResult& res) {
      for (std::size_t i = 0; i < res.trials.size(); ++i) {
        std::printf("%zu-beam: reliability %.3f, mean throughput %.0f Mbps\n",
                    i + 2, res.trials[i].value.reliability,
                    res.trials[i].value.mean_throughput_bps / 1e6);
      }
    });
  }
  return 0;
}
