// Network campaign: many deterministic network trials over the PR-2
// sweep runner (same {trials, jobs, seed} discipline as sim::Engine, same
// derive_stream_seed per-trial streams, same post-barrier sink replay in
// trial-index order), plus the network-wide JSON record bench_network
// emits: availability / reliability / throughput CDFs over every
// (trial, link) pair.
//
// Byte-identity contract (pinned by tests/net): a 1-cell/1-UE campaign's
// write_sweep_json record equals the engine's for the same
// (name, scenario, controller, run, trials, jobs, seed) under frozen
// timing, byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/sweep.h"

namespace mmr::net {

struct NetworkCampaignSpec {
  std::string name = "bench_network";  ///< bench name in the JSON record
  NetworkSpec network;
  std::size_t trials = 1;
  std::size_t jobs = 1;
  std::uint64_t seed = 1;
  /// Zero every timing field so the record is a pure function of
  /// (spec, seed) -- the replay/byte-identity mode.
  bool freeze_timing = false;
};

struct NetworkCampaignResult {
  /// Per-trial network-aggregate summaries (index order).
  std::vector<sim::SweepTrial<core::LinkSummary>> trials;
  /// Full per-trial network outcomes, index-addressed.
  std::vector<NetworkResult> details;
  sim::SweepTiming timing;
  sim::SweepSummary aggregate;
};

/// Run the campaign. Trials execute on the sweep runner (jobs=K replay of
/// jobs=1, bit for bit); each trial builds its own Network from
/// ctx.stream_seed with a trial-local workspace. When `sink` is non-null
/// it receives, after the barrier and in trial-index order, every link's
/// fault events (link order) and every handover (time order) -- then one
/// on_sweep record (identical to the engine's for a single-link network).
NetworkCampaignResult run_network_campaign(const NetworkCampaignSpec& spec,
                                           sim::TelemetrySink* sink = nullptr);

/// Emit the network-wide record as one JSON line (fixed precision 10,
/// keys in fixed order -- byte-stable for identical results): campaign
/// shape, aggregate means (availability from the state-machine ledger,
/// reliability/throughput from the link summaries, total handovers), and
/// 21-point percentile CDFs (p0, p5, ..., p100) over every (trial, link)
/// pair for availability, reliability, and throughput.
void write_network_json(std::ostream& os, const NetworkCampaignSpec& spec,
                        const NetworkCampaignResult& result);

}  // namespace mmr::net
