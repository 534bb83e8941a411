// Network-wide reliability under crowd blockage: many cells, many UE
// sessions on a shared timeline (src/net), every link scored with
// cross-link interference folded into its SINR and its availability
// accounted by the Terragraph-style link state machine.
//
// Three schemes run the SAME network trials (same per-trial stream seeds,
// same crowds): mmReliable's standing two-beam controller, the reactive
// single-beam baseline, and the Terragraph-style ladder controller
// (refine -> switch -> retrain). The story the CDFs tell: when a walker
// blocks the serving path, terragraph/reactive pay the full recovery
// dance (link Unstable/Down while it runs), while mmReliable's second
// beam keeps the link Up -- so its network availability and reliability
// CDFs dominate.
//
// On top of the shared sweep flags (sim/campaign_cli.h), the bench adds:
//   --cells N            base stations on a line (default 3)
//   --ues-per-cell N     sessions per cell (default 2)
//   --cell-spacing-m X   distance between neighboring cells (default 40)
//   --network-json-out F append one network record (availability /
//                        reliability / throughput CDFs) per scheme to F
//
// --json-out receives the standard sweep records (write_sweep_json), so a
// 1-cell/1-UE run is byte-comparable to the engine path. --controller
// narrows the sweep to one scheme; --scenario swaps the crowd template
// (default indoor_crowd).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/constants.h"
#include "common/table.h"
#include "net/campaign.h"
#include "net/network.h"
#include "sim/campaign_cli.h"
#include "sim/faults.h"
#include "sim/telemetry.h"

using namespace mmr;

namespace {

const std::vector<std::string> kSchemes = {"mmreliable", "reactive",
                                           "terragraph"};

struct NetworkCliOptions {
  std::size_t cells = 3;
  std::size_t ues_per_cell = 2;
  double cell_spacing_m = 40.0;
  std::string network_json_out;
};

double mean_availability(const net::NetworkCampaignResult& result,
                         double duration_s) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& detail : result.details) {
    for (const auto& link : detail.links) {
      sum += link.availability(duration_s);
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::size_t total_handovers(const net::NetworkCampaignResult& result) {
  std::size_t n = 0;
  for (const auto& detail : result.details) n += detail.handovers.size();
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  net::register_net_builtins();
  NetworkCliOptions net_opts;
  auto extra = [&net_opts](int& i, int argc_in, char** argv_in) -> bool {
    auto flag_arg = [&](const char* flag) {
      return sim::flag_value(i, argc_in, argv_in, flag);
    };
    if (const char* v = flag_arg("--cells")) {
      net_opts.cells = sim::require_size("--cells", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--ues-per-cell")) {
      net_opts.ues_per_cell =
          sim::require_size("--ues-per-cell", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--cell-spacing-m")) {
      net_opts.cell_spacing_m =
          sim::require_f64("--cell-spacing-m", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--network-json-out")) {
      net_opts.network_json_out = v;
      return true;
    }
    return false;
  };
  const auto opts = sim::parse_sweep_cli(
      argc, argv, extra,
      "          [--cells N] [--ues-per-cell N] [--cell-spacing-m X]\n"
      "          [--network-json-out FILE]");
  if (opts.shard.enabled() || !opts.shard_queue.empty() ||
      !opts.merge.empty()) {
    std::fprintf(stderr,
                 "%s: --shard/--shard-queue/--merge apply only to "
                 "trial-campaign benches; the network campaign has no "
                 "journal to shard\n",
                 argv[0]);
    return 2;
  }
  const std::size_t trials = opts.trials > 0 ? opts.trials : 10;
  const std::uint64_t seed = opts.seed > 0 ? opts.seed : 21;
  const std::vector<std::string> schemes =
      opts.controller.empty() ? kSchemes
                              : std::vector<std::string>{opts.controller};

  net::NetworkCampaignSpec base;
  base.trials = trials;
  base.jobs = opts.jobs;
  base.seed = seed;
  base.freeze_timing = opts.freeze_timing;
  base.network.num_cells = net_opts.cells;
  base.network.ues_per_cell = net_opts.ues_per_cell;
  base.network.cell_spacing_m = net_opts.cell_spacing_m;
  base.network.link_scenario.name =
      opts.scenario.empty() ? "indoor_crowd" : opts.scenario;
  // Shrink the link margin so a blocked serving beam is a true outage
  // (same regime as the Fig. 16/18 blockage benches).
  base.network.link_scenario.config.tx_power_dbm = 14.0;
  // A slow walk: enough motion for tracking to matter, not enough to
  // leave a 40 m cell within the 1 s run (handover experiments shrink
  // --cell-spacing-m instead).
  base.network.link_scenario.ue_velocity = {1.0, 0.0};
  if (!opts.faults.empty()) {
    base.network.run.faults = sim::fault_preset(opts.faults);
  }

  std::printf("=== Network: %zu cell(s) x %zu UE(s), crowd blockage ===\n",
              net_opts.cells, net_opts.ues_per_cell);
  std::printf("(scenario %s, %zu trial(s), seed %llu, jobs %zu; outage "
              "threshold %.0f dB)\n\n",
              base.network.link_scenario.name.c_str(), trials,
              static_cast<unsigned long long>(seed), opts.jobs, kOutageSnrDb);

  Table table({"scheme", "availability", "reliability", "tput [Mb/s]",
               "handovers"});
  std::vector<std::string> sweep_lines;
  std::vector<std::string> network_lines;
  for (const std::string& scheme : schemes) {
    net::NetworkCampaignSpec spec = base;
    spec.name = "network_" + scheme;
    spec.network.controller.name = scheme;
    std::ostringstream sweep_os;
    sim::JsonLinesSink sink(sweep_os);
    const net::NetworkCampaignResult result =
        net::run_network_campaign(spec, &sink);
    sweep_lines.push_back(sweep_os.str());
    std::ostringstream network_os;
    net::write_network_json(network_os, spec, result);
    network_lines.push_back(network_os.str());

    const double avail =
        mean_availability(result, spec.network.run.duration_s);
    table.add_row({scheme, Table::num(avail, 4),
                   Table::num(result.aggregate.mean_reliability, 4),
                   Table::num(result.aggregate.mean_throughput_bps / 1e6, 1),
                   std::to_string(total_handovers(result))});
  }
  table.print(std::cout);
  std::printf("\n");
  for (const std::string& line : network_lines) std::fputs(line.c_str(), stdout);

  auto commit = [&](const std::string& path,
                    const std::vector<std::string>& lines) {
    if (path.empty()) return;
    AtomicFile file(path);
    {
      std::ifstream existing(path, std::ios::binary);
      if (existing && existing.peek() != std::ifstream::traits_type::eof()) {
        file.stream() << existing.rdbuf();
      }
    }
    for (const std::string& line : lines) file.stream() << line;
    if (!file.stream()) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0], path.c_str());
      std::exit(2);
    }
    file.commit();
  };
  commit(opts.json_out, sweep_lines);
  commit(net_opts.network_json_out, network_lines);
  return 0;
}
