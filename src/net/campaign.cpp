#include "net/campaign.h"

#include <ostream>
#include <utility>

#include "common/error.h"
#include "common/stats.h"
#include "sim/telemetry.h"
#include "sim/workspace.h"

namespace mmr::net {

NetworkCampaignResult run_network_campaign(const NetworkCampaignSpec& spec,
                                           sim::TelemetrySink* sink) {
  MMR_EXPECTS(spec.trials >= 1);
  register_net_builtins();
  spec.network.validate();

  NetworkCampaignResult result;
  result.details.resize(spec.trials);
  sim::SweepRunner runner({spec.trials, spec.jobs, spec.seed});
  result.trials = runner.run([&](sim::TrialContext& ctx) {
    sim::TrialWorkspace workspace;
    Network network(spec.network, ctx.stream_seed, &workspace);
    NetworkResult outcome = network.run();
    const core::LinkSummary summary = outcome.network;
    // Index-addressed slot: no cross-thread ordering dependence.
    result.details[ctx.index] = std::move(outcome);
    return summary;
  });
  result.timing = runner.timing();
  if (spec.freeze_timing) sim::freeze_sweep_timing(result.timing, result.trials);
  result.aggregate = sim::summarize_sweep(result.trials);

  if (sink != nullptr) {
    for (std::size_t i = 0; i < result.trials.size(); ++i) {
      const NetworkResult& detail = result.details[i];
      for (const LinkReport& link : detail.links) {
        for (const core::FaultEvent& ev : link.faults) sink->on_fault(ev);
      }
      for (const core::HandoverEvent& ev : detail.handovers) {
        sink->on_handover(ev);
      }
    }
    sim::SweepRecord record;
    record.name = spec.name;
    record.trials = result.trials;
    record.timing = result.timing;
    sink->on_sweep(record);
  }
  return result;
}

namespace {

void write_cdf(std::ostream& os, const char* key,
               std::span<const double> values) {
  os << "\"" << key << "\": [";
  for (int p = 0; p <= 100; p += 5) {
    if (p != 0) os << ", ";
    os << percentile(values, static_cast<double>(p));
  }
  os << "]";
}

}  // namespace

void write_network_json(std::ostream& os, const NetworkCampaignSpec& spec,
                        const NetworkCampaignResult& result) {
  MMR_EXPECTS(!result.details.empty());
  const double duration_s = spec.network.run.duration_s;
  std::vector<double> availability;
  std::vector<double> reliability;
  std::vector<double> throughput;
  availability.reserve(result.details.size() * spec.network.num_links());
  reliability.reserve(availability.capacity());
  throughput.reserve(availability.capacity());
  double mean_availability = 0.0;
  std::size_t handovers_total = 0;
  for (const NetworkResult& detail : result.details) {
    for (const LinkReport& link : detail.links) {
      availability.push_back(link.availability(duration_s));
      reliability.push_back(link.summary.reliability);
      throughput.push_back(link.summary.mean_throughput_bps);
      handovers_total += link.handovers;
    }
  }
  for (const double a : availability) {
    mean_availability += a / static_cast<double>(availability.size());
  }

  const auto flags = os.flags();
  const auto precision = os.precision();
  os.precision(10);
  os << "{\"bench\": \"" << spec.name << "\", \"network\": {"
     << "\"cells\": " << spec.network.num_cells
     << ", \"ues_per_cell\": " << spec.network.ues_per_cell
     << ", \"links\": " << spec.network.num_links()
     << ", \"trials\": " << spec.trials << ", \"jobs\": " << spec.jobs
     << ", \"seed\": " << spec.seed << ", \"controller\": \""
     << spec.network.controller.name << "\", \"scenario\": \""
     << spec.network.link_scenario.name
     << "\", \"duration_s\": " << duration_s << "}, \"aggregate\": {"
     << "\"mean_availability\": " << mean_availability
     << ", \"mean_reliability\": " << result.aggregate.mean_reliability
     << ", \"mean_throughput_bps\": "
     << result.aggregate.mean_throughput_bps
     << ", \"handovers_total\": " << handovers_total << "}, \"cdf\": {";
  write_cdf(os, "availability", availability);
  os << ", ";
  write_cdf(os, "reliability", reliability);
  os << ", ";
  write_cdf(os, "throughput_bps", throughput);
  os << "}}\n";
  os.precision(precision);
  os.flags(flags);
}

}  // namespace mmr::net
