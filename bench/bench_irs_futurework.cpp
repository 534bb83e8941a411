// Section 8 (future work) reproduction: engineered reflections with an
// intelligent reflecting surface.
//
// In a reflection-poor room (wooden walls only), the multi-beam system
// "falls back to a single-beam system" (the paper's own caveat) and a LOS
// blockage takes the link down. Deploying one IRS panel restores a strong
// second path: the multi-beam regains its constructive gain AND its
// blockage resilience. Runs as a 2-trial engine campaign on the
// registered "indoor_poor" scenario, toggling the IRS via the spec.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/table.h"
#include "sim/campaign_cli.h"
#include "sim/engine.h"

using namespace mmr;

namespace {

struct Outcome {
  double reliability;
  double tput_mbps;
  double min_snr;
};

Outcome outcome_of(const core::LinkSummary& summary,
                   const std::vector<core::LinkSample>& samples) {
  Outcome out;
  out.reliability = summary.reliability;
  out.tput_mbps = summary.mean_throughput_bps / 1e6;
  out.min_snr = 1e9;
  for (const auto& s : samples) {
    if (s.t_s > 0.2) out.min_snr = std::min(out.min_snr, s.snr_db);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = sim::parse_sweep_cli(argc, argv);
  std::printf("=== Section 8 future work: engineered reflections (IRS) ===\n");
  std::printf("(reflection-poor wooden room, LOS blocked ~0.25-0.75 s)\n\n");

  sim::ExperimentSpec spec;
  spec.name = "irs_engineered_reflections";
  spec.scenario.name = "indoor_poor";
  spec.scenario.config.seed = 11;
  // Match the world's tightened link budget.
  spec.scenario.config.tx_power_dbm = 14.0;
  spec.scenario.blockers = {{0.5, 1.0, 30.0}};
  spec.trials = 2;
  spec.seed = 11;
  spec.seed_policy = sim::SeedPolicy::kFixed;
  spec.record_samples = true;
  spec.customize = [](const sim::TrialContext& ctx,
                      sim::ScenarioSpec& scenario,
                      sim::ControllerSpec& /*controller*/,
                      sim::RunConfig& /*run*/) {
    scenario.irs_gain_db = ctx.index == 0 ? 0.0 : 60.0;
  };
  spec.label = [](const sim::TrialContext& ctx) {
    return std::string(ctx.index == 0 ? "natural" : "irs_60db");
  };
  sim::run_campaign(spec, opts, [&](const sim::EngineResult& res) {
    Table t({"deployment", "reliability", "mean tput (Mbps)",
             "min SNR during blockage (dB)"});
    const Outcome bare = outcome_of(res.trials[0].value, res.samples[0]);
    const Outcome irs = outcome_of(res.trials[1].value, res.samples[1]);
    t.add_row({"natural reflectors only", Table::num(bare.reliability, 3),
               Table::num(bare.tput_mbps, 0), Table::num(bare.min_snr, 1)});
    t.add_row({"one 60 dB IRS panel", Table::num(irs.reliability, 3),
               Table::num(irs.tput_mbps, 0), Table::num(irs.min_snr, 1)});
    t.print(std::cout);
    std::printf("\npaper vision: IRS panels engineer the strong reflections\n"
                "multi-beam needs where the environment provides none.\n");
  });
  return 0;
}
