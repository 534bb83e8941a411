// Ablations over the design choices DESIGN.md calls out:
//  1. weight quantization: ideal vs the testbed's 6-bit/0.5 dB vs
//     commodity 2-bit/on-off (paper Section 5.1: coarse quantization
//     suffices for phase-coherent multi-beams);
//  2. number of beams K: diminishing returns beyond 2-3 beams (paper:
//     3 beams reach ~92% of the oracle);
//  3. probing budget: refinement cost vs number of beams;
//  4. hierarchical vs exhaustive training: probe count and accuracy.
#include <cstdio>
#include <iostream>

#include "array/weights.h"
#include "baselines/oracle.h"
#include "common/angles.h"
#include "common/table.h"
#include "core/beam_training.h"
#include "core/hierarchical_training.h"
#include "core/multibeam.h"
#include "core/probing.h"
#include "sim/campaign_cli.h"
#include "sim/scenario.h"

using namespace mmr;

int main(int argc, char** argv) {
  auto opts = sim::parse_sweep_cli(argc, argv);
  sim::ScenarioConfig cfg;
  cfg.seed = 7;
  sim::LinkWorld world = sim::make_indoor_world(cfg);
  const array::Ula ula = world.config().tx_ula;
  const auto link = world.probe_interface();

  core::TrainingConfig tc;
  tc.top_k = 3;
  const auto training =
      core::exhaustive_training(sim::sector_codebook(ula), link.csi, tc);
  const auto powers = training.powers();
  const auto rel = core::estimate_relative_channels(
      ula, training.angles(), link.csi, &powers);
  std::vector<cplx> ratios;
  for (const auto& r : rel) ratios.push_back(r.ratio);

  std::printf("=== Ablation 1: beam-weight quantization ===\n");
  {
    const auto mb = core::synthesize_multibeam(
        ula, core::constructive_components(training.angles(), ratios));
    Table t({"quantization", "SNR (dB)", "loss vs ideal (dB)"});
    const double ideal = world.true_snr_db(mb.weights);
    struct Spec {
      const char* name;
      array::QuantizationSpec spec;
    };
    for (const Spec s :
         {Spec{"ideal (float)", array::QuantizationSpec::ideal()},
          Spec{"testbed: 6-bit phase, 0.5 dB gain",
               array::QuantizationSpec::paper_testbed()},
          Spec{"commodity: 2-bit phase, on/off",
               array::QuantizationSpec::commodity_11ad()}}) {
      const CVec q = array::quantize(mb.weights, s.spec);
      const double snr = world.true_snr_db(q);
      t.add_row({s.name, Table::num(snr, 2), Table::num(ideal - snr, 2)});
    }
    t.print(std::cout);
    std::printf("paper claim: 2-bit phase + on/off amplitude still forms "
                "phase-coherent multi-beams (Section 5.1).\n");
  }

  std::printf("\n=== Ablation 2: number of beams K ===\n");
  {
    baselines::Oracle oracle([&] { return world.true_per_antenna_channel(); });
    oracle.start(0.0, link);
    const double snr_oracle = world.true_snr_db(oracle.tx_weights());
    Table t({"beams K", "SNR (dB)", "fraction of oracle (linear)"});
    const std::vector<double> all_angles = training.angles();
    for (std::size_t k = 1; k <= training.beams.size(); ++k) {
      std::vector<double> angles(all_angles.begin(), all_angles.begin() + k);
      std::vector<cplx> rr(ratios.begin(), ratios.begin() + k);
      const auto mb = core::synthesize_multibeam(
          ula, core::constructive_components(angles, rr));
      const double snr = world.true_snr_db(mb.weights);
      t.add_row({Table::num(static_cast<double>(k), 0), Table::num(snr, 2),
                 Table::num(std::pow(10.0, (snr - snr_oracle) / 10.0), 3)});
    }
    t.add_row({"oracle", Table::num(snr_oracle, 2), "1.000"});
    t.print(std::cout);
  }

  std::printf("\n=== Ablation 3: probing budget vs K ===\n");
  {
    Table t({"beams K", "training probes", "refinement probes",
             "total (2(K-1)+K)"});
    for (std::size_t k = 2; k <= 4; ++k) {
      core::ProbeBudget budget;
      // Synthetic angles; only the accounting matters here.
      std::vector<double> angles;
      for (std::size_t i = 0; i < k; ++i) {
        angles.push_back(deg_to_rad(-30.0 + 20.0 * static_cast<double>(i)));
      }
      core::estimate_relative_channels(ula, angles, link.csi, nullptr,
                                       &budget);
      t.add_row({Table::num(static_cast<double>(k), 0),
                 Table::num(budget.training_probes, 0),
                 Table::num(budget.refinement_probes, 0),
                 Table::num(budget.total(), 0)});
    }
    t.print(std::cout);
  }

  std::printf("\n=== Ablation 4: hierarchical vs exhaustive training ===\n");
  {
    core::HierarchicalConfig hc;
    const auto h = core::hierarchical_training(ula, link.csi, hc);
    const double exhaustive_angle = training.beams[0].angle_rad;
    Table t({"method", "probes", "angle found (deg)", "error vs exhaustive"});
    t.add_row({"exhaustive (64-beam sweep)", Table::num(64, 0),
               Table::num(rad_to_deg(exhaustive_angle), 1), "--"});
    t.add_row({"hierarchical (bisection)", Table::num(h.probes_used, 0),
               Table::num(rad_to_deg(h.angle_rad), 1),
               Table::num(std::abs(rad_to_deg(h.angle_rad - exhaustive_angle)),
                          1) + " deg"});
    t.print(std::cout);
    std::printf("the log-probe training is the cost model behind the 5G NR "
                "curve in Fig. 18d.\n");
  }

  std::printf("\n=== 5. controller matrix on the seed-7 room (engine) ===\n");
  {
    // Every registered end-to-end scheme (including the oracle upper
    // bound) on the same link: the ablation baseline the tables above
    // decompose.
    const std::vector<std::string> ctrls = {"mmreliable", "reactive",
                                            "beamspy", "widebeam", "oracle"};
    sim::ExperimentSpec spec;
    spec.name = "ablations_controller_matrix";
    spec.scenario.name = "indoor";
    spec.scenario.config = cfg;
    spec.run.duration_s = 0.25;
    spec.trials = ctrls.size();
    spec.seed = cfg.seed;
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
      Table t({"controller", "reliability", "mean tput (Mbps)"});
      for (std::size_t i = 0; i < ctrls.size(); ++i) {
        t.add_row({ctrls[i], Table::num(res.trials[i].value.reliability, 3),
                   Table::num(
                       res.trials[i].value.mean_throughput_bps / 1e6, 0)});
      }
      t.print(std::cout);
    });
  }
  return 0;
}
