// Section 8 (future work) reproduction: multi-user coexistence with one
// multi-beam per RF chain. When two users' viable paths share a reflector
// direction, naive per-user multi-beams interfere; the interference-aware
// planner trades one user's secondary lobe for clean spatial multiplexing.
#include <cstdio>
#include <iostream>

#include "common/angles.h"
#include "common/table.h"
#include "common/units.h"
#include "core/multi_user.h"
#include "phy/mcs.h"
#include "sim/campaign_cli.h"

using namespace mmr;

namespace {

core::UserChannel make_user(std::vector<double> angles_deg,
                            std::vector<double> rel_db, double ref) {
  core::UserChannel u;
  for (std::size_t i = 0; i < angles_deg.size(); ++i) {
    u.path_angles_rad.push_back(deg_to_rad(angles_deg[i]));
    u.ratios.push_back(cplx{from_db_amp(rel_db[i]), 0.0});
  }
  u.reference_power = ref;
  return u;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = sim::parse_sweep_cli(argc, argv);
  const array::Ula ula{16, 0.5};
  const phy::McsTable& mcs = phy::McsTable::nr();
  const double noise = 1e-3;

  std::printf("=== Section 8: two users, shared reflector at ~+18 deg ===\n");
  const std::vector<core::UserChannel> users{
      make_user({-30.0, 18.0}, {0.0, -3.0}, 1.0),
      make_user({45.0, 19.0}, {0.0, -3.0}, 0.7),
  };

  Table t({"planner", "user", "beams", "SINR (dB)", "tput @400MHz (Mbps)"});
  double sum_naive = 0.0, sum_aware = 0.0;
  for (int aware = 0; aware < 2; ++aware) {
    const auto plans = aware ? core::plan_multi_user(ula, users)
                             : core::plan_naive(ula, users);
    for (std::size_t u = 0; u < users.size(); ++u) {
      const double sinr = core::user_sinr(ula, users, plans, u, noise);
      const double sinr_db = to_db(sinr);
      const double tput = mcs.throughput_bps(sinr_db, 400e6) / 1e6;
      (aware ? sum_aware : sum_naive) += tput;
      t.add_row({aware ? "interference-aware" : "naive",
                 u == 0 ? "A (strong)" : "B (weak)",
                 Table::num(plans[u].assigned_paths.size(), 0),
                 Table::num(sinr_db, 1), Table::num(tput, 0)});
    }
  }
  t.print(std::cout);
  std::printf("\nsum throughput: naive %.0f Mbps, interference-aware %.0f "
              "Mbps (%.2fx)\n", sum_naive, sum_aware, sum_aware / sum_naive);
  std::printf("paper vision: spatial beams split between reliability and\n"
              "multi-user coexistence; the planner keeps each user's lobes\n"
              "off the other user's directions.\n");

  std::printf("\n=== spatial-sharing baseline: multi-beam vs widebeam "
              "(engine) ===\n");
  {
    // Context for the planner numbers: how much a single user gives up by
    // widening its beam (the other way to \"share\" the sector) compared
    // with keeping two sharp constructive lobes.
    const std::vector<std::string> ctrls = {"mmreliable", "widebeam"};
    sim::ExperimentSpec spec;
    spec.name = "multi_user_sharing_baseline";
    spec.scenario.name = "indoor";
    spec.scenario.config.seed = 23;
    spec.run.duration_s = 0.25;
    spec.trials = ctrls.size();
    spec.seed = 23;
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
        std::printf("%12s: reliability %.3f, mean throughput %.0f Mbps\n",
                    ctrls[i].c_str(), res.trials[i].value.reliability,
                    res.trials[i].value.mean_throughput_bps / 1e6);
      }
    });
  }
  return 0;
}
