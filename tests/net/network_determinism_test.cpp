// Determinism tier for the network layer:
//   * jobs=8 replays jobs=1 BYTE-identically -- both the standard sweep
//     record and the network-wide CDF record (frozen timing);
//   * a 1-cell/1-UE network campaign emits the exact bytes of the
//     engine's campaign for the same (name, scenario, controller, run,
//     trials, jobs, seed) -- the collapse contract at the JSON level,
//     fault stream included;
//   * repeated runs are byte-stable.
// The whole binary is ALSO registered per SIMD backend
// (net_forced_<backend> in tests/CMakeLists.txt), so these bytes are
// pinned across every kernel implementation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "net/campaign.h"
#include "net/network.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/telemetry.h"

namespace {

using namespace mmr;

net::NetworkCampaignSpec crowd_campaign(std::size_t jobs) {
  net::NetworkCampaignSpec spec;
  spec.name = "network_determinism";
  spec.trials = 4;
  spec.jobs = jobs;
  spec.seed = 33;
  spec.freeze_timing = true;
  spec.network.num_cells = 2;
  spec.network.ues_per_cell = 2;
  spec.network.cell_spacing_m = 12.0;
  spec.network.link_scenario.name = "indoor_crowd";
  spec.network.link_scenario.config.tx_power_dbm = 14.0;
  spec.network.link_scenario.ue_velocity = {1.5, 0.0};
  spec.network.controller.name = "terragraph";
  spec.network.run.faults = sim::fault_preset("light");
  return spec;
}

struct CampaignBytes {
  std::string sweep;
  std::string network;
};

/// The serialized records declare the run shape, including the jobs
/// count ("jobs": N) -- the one field that legitimately differs between
/// a jobs=1 and a jobs=8 run of the same campaign. Zero it so the
/// comparison pins every OTHER byte.
std::string canonicalize_jobs(std::string s) {
  const std::string key = "\"jobs\": ";
  std::size_t pos = 0;
  while ((pos = s.find(key, pos)) != std::string::npos) {
    std::size_t begin = pos + key.size();
    std::size_t end = begin;
    while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
    s.replace(begin, end - begin, "0");
    pos = begin;
  }
  return s;
}

CampaignBytes run_to_bytes(const net::NetworkCampaignSpec& spec) {
  std::ostringstream sweep_os;
  sim::JsonLinesSink sink(sweep_os);
  const net::NetworkCampaignResult result =
      net::run_network_campaign(spec, &sink);
  std::ostringstream network_os;
  net::write_network_json(network_os, spec, result);
  return {sweep_os.str(), network_os.str()};
}

TEST(NetworkDeterminism, Jobs8ReplaysJobs1BitIdentically) {
  net::register_net_builtins();
  const CampaignBytes serial = run_to_bytes(crowd_campaign(1));
  const CampaignBytes parallel = run_to_bytes(crowd_campaign(8));
  ASSERT_FALSE(serial.sweep.empty());
  ASSERT_FALSE(serial.network.empty());
  EXPECT_EQ(canonicalize_jobs(serial.sweep), canonicalize_jobs(parallel.sweep));
  EXPECT_EQ(canonicalize_jobs(serial.network),
            canonicalize_jobs(parallel.network));
}

TEST(NetworkDeterminism, RepeatedRunsAreByteStable) {
  net::register_net_builtins();
  const CampaignBytes first = run_to_bytes(crowd_campaign(2));
  const CampaignBytes second = run_to_bytes(crowd_campaign(2));
  EXPECT_EQ(first.sweep, second.sweep);
  EXPECT_EQ(first.network, second.network);
}

// The JSON-level collapse: a 1-cell/1-UE network campaign and the
// engine's campaign produce the same bytes -- same per-trial stream
// seeds, same derived fault seeds, same summaries, same sweep record.
TEST(NetworkDeterminism, SingleLinkCampaignMatchesEngineBytes) {
  net::register_net_builtins();

  sim::ScenarioSpec scenario;
  scenario.name = "indoor_crowd";
  scenario.config.tx_power_dbm = 14.0;
  scenario.ue_velocity = {1.0, 0.0};
  sim::ControllerSpec controller;  // mmreliable
  sim::RunConfig run;
  run.faults = sim::fault_preset("moderate");

  sim::ExperimentSpec engine_spec;
  engine_spec.name = "network_vs_engine";
  engine_spec.scenario = scenario;
  engine_spec.controller = controller;
  engine_spec.run = run;
  engine_spec.trials = 3;
  engine_spec.jobs = 2;
  engine_spec.seed = 19;
  engine_spec.freeze_timing = true;
  std::ostringstream engine_os;
  sim::JsonLinesSink engine_sink(engine_os);
  sim::Engine engine;
  (void)engine.run(engine_spec, &engine_sink);

  net::NetworkCampaignSpec campaign;
  campaign.name = "network_vs_engine";
  campaign.trials = 3;
  campaign.jobs = 2;
  campaign.seed = 19;
  campaign.freeze_timing = true;
  campaign.network.num_cells = 1;
  campaign.network.ues_per_cell = 1;
  campaign.network.link_scenario = scenario;
  campaign.network.controller = controller;
  campaign.network.run = run;
  std::ostringstream campaign_os;
  sim::JsonLinesSink campaign_sink(campaign_os);
  (void)net::run_network_campaign(campaign, &campaign_sink);

  ASSERT_FALSE(engine_os.str().empty());
  EXPECT_EQ(campaign_os.str(), engine_os.str());
}

// Different jobs counts must also leave the structured results (not just
// the serialized record) identical: per-link ledgers, handovers, faults.
TEST(NetworkDeterminism, StructuredResultsMatchAcrossJobs) {
  net::register_net_builtins();
  const net::NetworkCampaignResult a =
      net::run_network_campaign(crowd_campaign(1));
  const net::NetworkCampaignResult b =
      net::run_network_campaign(crowd_campaign(8));
  ASSERT_EQ(a.details.size(), b.details.size());
  for (std::size_t t = 0; t < a.details.size(); ++t) {
    ASSERT_EQ(a.details[t].links.size(), b.details[t].links.size());
    ASSERT_EQ(a.details[t].handovers.size(), b.details[t].handovers.size());
    for (std::size_t l = 0; l < a.details[t].links.size(); ++l) {
      const net::LinkReport& la = a.details[t].links[l];
      const net::LinkReport& lb = b.details[t].links[l];
      EXPECT_EQ(la.summary.reliability, lb.summary.reliability);
      EXPECT_EQ(la.summary.mean_throughput_bps,
                lb.summary.mean_throughput_bps);
      EXPECT_EQ(la.time_up_s, lb.time_up_s);
      EXPECT_EQ(la.time_unstable_s, lb.time_unstable_s);
      EXPECT_EQ(la.handovers, lb.handovers);
      EXPECT_EQ(la.faults.size(), lb.faults.size());
      EXPECT_EQ(la.final_state, lb.final_state);
    }
  }
}

}  // namespace
