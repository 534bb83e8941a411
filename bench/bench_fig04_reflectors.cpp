// Fig. 4 reproduction: strength of mmWave multipath.
//  (a) CDF of the strongest reflected path's attenuation relative to the
//      direct path, over randomized indoor (5-10 m) and outdoor (10-80 m)
//      deployments. Paper: 1-10 dB range, median 7.2 dB indoor / 5 dB
//      outdoor.
//  (b) Heatmap of scan power over angle while the UE moves: strong
//      reflectors appear at different angles over time.
#include <cstdio>
#include <iostream>
#include <string>

#include "array/codebook.h"
#include "channel/environment.h"
#include "common/angles.h"
#include "common/constants.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "sim/campaign_cli.h"
#include "sim/scenario.h"

using namespace mmr;

namespace {

channel::Material random_material(Rng& rng) {
  switch (rng.uniform_index(5)) {
    case 0: return channel::Material::metal();
    case 1: return channel::Material::glass();
    case 2: return channel::Material::concrete();
    case 3: return channel::Material::drywall();
    default: return channel::Material::wood();
  }
}

// Random indoor room: 5-10 m link inside a rectangular room with
// randomized materials and a side cabinet/furniture reflector.
RVec indoor_samples(std::size_t n, Rng& rng) {
  RVec rel_db;
  while (rel_db.size() < n) {
    const double width = rng.uniform(5.0, 9.0);
    const double length = rng.uniform(8.0, 14.0);
    channel::Environment env(kCarrier28GHz);
    env.add_wall({{{0.0, 0.0}, {length, 0.0}}, random_material(rng)});
    env.add_wall({{{0.0, width}, {length, width}}, random_material(rng)});
    env.add_wall({{{0.0, 0.0}, {0.0, width}}, random_material(rng)});
    env.add_wall({{{length, 0.0}, {length, width}}, random_material(rng)});
    if (rng.bernoulli(0.6)) {
      const double fy = rng.uniform(1.0, width - 1.0);
      env.add_wall({{{2.0, fy}, {length - 2.0, fy}}, random_material(rng),
                    false});
    }
    const double link = rng.uniform(5.0, 10.0);
    const double y = rng.uniform(1.0, width - 1.0);
    const channel::Pose tx{{0.5, y}, 0.0};
    const channel::Pose ue{{0.5 + link, y + rng.uniform(-0.5, 0.5)}, kPi};
    const auto paths = env.trace(tx, ue, 40.0);
    if (paths.size() < 2 || !paths[0].is_los) continue;
    rel_db.push_back(to_db(paths[0].effective_power() /
                           paths[1].effective_power()));
  }
  return rel_db;
}

// Random outdoor street: building face at random offset and material.
RVec outdoor_samples(std::size_t n, Rng& rng) {
  RVec rel_db;
  while (rel_db.size() < n) {
    channel::Environment env(kCarrier28GHz);
    const double offset = rng.uniform(3.0, 15.0);
    env.add_wall({{{-20.0, offset}, {150.0, offset}},
                  rng.bernoulli(0.7) ? channel::Material::glass()
                                     : channel::Material::concrete()});
    if (rng.bernoulli(0.5)) {
      env.add_wall({{{-20.0, -rng.uniform(10.0, 40.0)},
                     {150.0, -rng.uniform(10.0, 40.0)}},
                    channel::Material::concrete()});
    }
    const double link = rng.uniform(10.0, 80.0);
    const channel::Pose tx{{0.0, 0.0}, 0.0};
    const channel::Pose ue{{link, rng.uniform(-1.0, 1.0)}, kPi};
    const auto paths = env.trace(tx, ue, 40.0);
    if (paths.size() < 2 || !paths[0].is_los) continue;
    rel_db.push_back(to_db(paths[0].effective_power() /
                           paths[1].effective_power()));
  }
  return rel_db;
}

void print_cdf(const char* label, const RVec& samples) {
  Table t({"percentile", "relative attenuation (dB)"});
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0}) {
    t.add_row({Table::num(p, 0), Table::num(percentile(samples, p), 2)});
  }
  std::printf("\n%s (%zu samples):\n", label, samples.size());
  t.print(std::cout);
  std::printf("median: %.2f dB\n", median(samples));
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = sim::parse_sweep_cli(argc, argv);
  std::printf("=== Fig. 4a: CDF of reflected-path relative attenuation ===\n");
  std::printf("(paper: 1-10 dB range; median 7.2 dB indoor, 5 dB outdoor)\n");
  Rng rng(2024);
  const RVec indoor = indoor_samples(5000, rng);
  const RVec outdoor = outdoor_samples(5000, rng);
  print_cdf("Indoor (5-10 m links)", indoor);
  print_cdf("Outdoor (10-80 m links)", outdoor);

  std::printf("\n=== Fig. 4b: angle-power heatmap during user motion ===\n");
  std::printf("(rows: time; cols: scan angle; cells: power rel. to row max, dB)\n");
  sim::ScenarioConfig cfg;
  cfg.seed = 9;
  sim::LinkWorld world = sim::make_indoor_world(cfg, {0.0, -1.5});
  const array::Ula ula = world.config().tx_ula;
  const array::Codebook cb = sim::sector_codebook(ula, 24);
  std::printf("%8s", "t(ms)");
  for (std::size_t i = 0; i < cb.size(); i += 2) {
    std::printf("%6.0f", rad_to_deg(cb.angle(i)));
  }
  std::printf("\n");
  for (double t = 0.0; t <= 1.0; t += 0.125) {
    world.set_time(t);
    RVec scan(cb.size());
    double peak = 0.0;
    for (std::size_t i = 0; i < cb.size(); ++i) {
      scan[i] = world.true_power(cb.weights(i));
      peak = std::max(peak, scan[i]);
    }
    std::printf("%8.0f", t * 1e3);
    for (std::size_t i = 0; i < cb.size(); i += 2) {
      const double rel = to_db(scan[i] / peak);
      std::printf("%6.0f", std::max(rel, -40.0));
    }
    std::printf("\n");
  }

  std::printf("\n=== multipath richness across registered scenarios "
              "(engine) ===\n");
  {
    // The reflector statistics above explain why the same 2-beam
    // controller lands differently per scenario: the registry makes that
    // comparison a 3-trial campaign.
    const std::vector<std::string> rooms = {"indoor", "indoor_sparse",
                                            "outdoor"};
    sim::ExperimentSpec spec;
    spec.name = "fig04_scenario_matrix";
    spec.scenario.config.seed = 21;
    spec.run.duration_s = 0.25;
    spec.trials = rooms.size();
    spec.seed = 21;
    spec.seed_policy = sim::SeedPolicy::kFixed;
    spec.customize = [&rooms](const sim::TrialContext& ctx,
                              sim::ScenarioSpec& scenario,
                              sim::ControllerSpec& /*controller*/,
                              sim::RunConfig& /*run*/) {
      scenario.name = rooms[ctx.index];
    };
    spec.label = [&rooms](const sim::TrialContext& ctx) {
      return rooms[ctx.index];
    };
    sim::run_campaign(spec, opts, [&](const sim::EngineResult& res) {
      Table t({"scenario", "reliability", "mean tput (Mbps)"});
      for (std::size_t i = 0; i < rooms.size(); ++i) {
        t.add_row({rooms[i], Table::num(res.trials[i].value.reliability, 3),
                   Table::num(
                       res.trials[i].value.mean_throughput_bps / 1e6, 0)});
      }
      t.print(std::cout);
    });
  }
  return 0;
}
