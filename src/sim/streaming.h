// Streaming service mode: a long-running session timeline with bounded
// memory (ROADMAP item 3 -- the refactor from "sweep engine" to
// "traffic-serving system").
//
// Where a campaign runs trial i to completion and aggregates at the end,
// the StreamingService ticks epoch t across a sharded table of live UE
// sessions: each shard owns a net::Network session table (driven through
// the resumable step_tick interface), a PR-6 TrialWorkspace arena, a
// churn stream, and a set of O(1) streaming accumulators
// (common/streaming_stats.h). Sessions join and leave mid-run through a
// Poisson-arrival / exponential-lifetime churn model; retired slots are
// recycled, so RSS stays flat no matter how long the service runs.
//
// Determinism contract:
//   * The shard count is a SPEC field, independent of the worker count.
//     Shard k's network seeds from spec.seed (shard 0 verbatim, like the
//     engine's link-0 convention; shard k > 0 from Rng::derive_stream_seed),
//     its churn from a dedicated sub-stream -- so what each shard computes
//     is a pure function of the spec.
//   * jobs only parallelizes the per-epoch shard sweep over the PR-1
//     ThreadPool; accumulators are shard-local and fold in SHARD-INDEX
//     ORDER on the orchestrator thread at every snapshot boundary. With
//     freeze_timing (zeroing the wall-clock-derived rate field), jobs=K
//     snapshot output is BYTE-IDENTICAL to jobs=1.
//   * A 1-session/1-shard service with churn off is the engine-path
//     trial by construction: its one session ticks and scores through
//     sim::LinkSession (sim/runner.h) from the same seed, so the per-tick
//     sample bits are the engine's (tests/streaming checks the result).
//
// Sharding approximation: cross-link interference and handover are scoped
// WITHIN a shard (each shard is its own interference domain). A 1-shard
// service is exact; more shards trade cross-shard coupling for parallel
// scaling -- the same trade Terragraph-style deployments make at cluster
// boundaries.
//
// Telemetry backpressure: snapshots deliver inline by default (fully
// deterministic). With async_snapshots a bounded ring queue decouples the
// service from a slow sink; when the queue is full the OLDEST snapshot is
// shed and a cumulative dropped-count watermark rides every later
// snapshot, so a consumer can always tell how much it missed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/streaming_stats.h"
#include "common/thread_pool.h"
#include "net/network.h"
#include "sim/telemetry.h"

namespace mmr::sim {

/// Session churn: Poisson arrivals at `arrival_rate_per_s` (service-wide,
/// split evenly across shards) with exponential lifetimes of mean
/// `mean_lifetime_s` (0 = sessions never leave). Draws come from per-shard
/// Rng sub-streams, so churn is deterministic and jobs-independent.
struct ChurnModel {
  double arrival_rate_per_s = 0.0;
  double mean_lifetime_s = 0.0;

  bool enabled() const {
    return arrival_rate_per_s > 0.0 || mean_lifetime_s > 0.0;
  }
  void validate() const;
};

struct StreamingSpec {
  std::string name = "streaming";
  /// Per-link template, cell layout, tick/outage config (network.run).
  /// network.num_cells/ues_per_cell define the cell topology; the LIVE
  /// session count is `sessions` + churn, not the batch table size.
  net::NetworkSpec network;
  /// Sessions joined at t = 0 (round-robin across shards).
  std::size_t sessions = 1;
  /// Hard cap on live sessions under churn (0 = uncapped). Applied per
  /// shard as max_sessions / shards.
  std::size_t max_sessions = 0;
  /// Shard count -- part of the RESULT's identity, never derived from the
  /// worker count.
  std::size_t shards = 1;
  /// Worker threads for the per-epoch shard sweep (0 = hardware_jobs()).
  std::size_t jobs = 1;
  std::uint64_t seed = 1;
  /// Shared-timeline horizon for run() [s].
  double duration_s = 1.0;
  /// Snapshot cadence [s] (>= network.run.tick_s; rounded to ticks).
  double snapshot_every_s = 0.1;
  ChurnModel churn;
  /// Zero the wall-clock-derived snapshot fields (session_ticks_per_s)
  /// so output is byte-stable across machines and thread counts.
  bool freeze_timing = false;
  /// Deliver snapshots through a bounded queue + drain thread instead of
  /// inline (drop-oldest load shedding; see header comment).
  bool async_snapshots = false;
  /// Ring capacity of the async snapshot queue.
  std::size_t queue_capacity = 64;

  void validate() const;
};

/// Final state of a streaming run: the last cumulative snapshot plus
/// queue/churn totals.
struct StreamingResult {
  std::uint64_t epochs = 0;
  std::uint64_t snapshots_emitted = 0;
  std::uint64_t snapshots_dropped = 0;
  std::uint64_t total_joined = 0;
  std::uint64_t total_left = 0;
  std::uint64_t live_sessions = 0;
  /// Cumulative-field snapshot at the final epoch (window fields cover
  /// the partial last window).
  StreamSnapshot final_snapshot;
};

/// The long-running service loop. Construct, then either run() the
/// configured horizon or drive begin()/step_epoch()/finish() manually.
class StreamingService {
 public:
  /// `sink` (optional) receives on_snapshot records; it must outlive the
  /// service. Ownership of nothing is taken.
  explicit StreamingService(const StreamingSpec& spec,
                            TelemetrySink* sink = nullptr);
  ~StreamingService();

  StreamingService(const StreamingService&) = delete;
  StreamingService& operator=(const StreamingService&) = delete;

  /// begin + duration_s worth of step_epoch + finish.
  StreamingResult run();

  /// Build the shard tables and join the initial sessions at t = 0.
  void begin();
  /// Advance ONE tick across every live session in every shard (churn,
  /// then network step, then accumulation), emitting a snapshot when the
  /// epoch crosses the cadence boundary. With jobs=1 the shards step
  /// inline on the calling thread and the steady-state loop is
  /// allocation-free (no churn, no snapshot boundary, slot capacities
  /// plateaued -- pinned by the alloc tier); jobs>1 fans the sweep over
  /// the pool at the cost of per-epoch task packaging.
  void step_epoch();
  /// Emit a final snapshot if the last window is non-empty, drain the
  /// async queue, and return the totals.
  StreamingResult finish();

  std::uint64_t epoch() const { return epoch_; }
  /// Live sessions across all shards (valid between epochs).
  std::size_t live_sessions() const;
  /// Snapshots shed by the async queue so far.
  std::uint64_t dropped_snapshots() const;

 private:
  struct Shard;
  struct SnapshotQueue;

  void process_churn(Shard& shard, double t_s);
  void accumulate(Shard& shard, double t_s);
  /// Fold every shard's accumulators (shard-index order) into a snapshot
  /// and deliver it (inline or queued). Resets the shard windows.
  void emit_snapshot(double t_s);
  void deliver(const StreamSnapshot& snapshot);

  StreamingSpec spec_;
  TelemetrySink* sink_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Null when the effective jobs count is 1 (inline shard sweep).
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<SnapshotQueue> queue_;
  bool begun_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t snapshot_index_ = 0;
  std::uint64_t ticks_per_snapshot_ = 1;
  /// Cumulative scored session-ticks at the previous snapshot (rate calc).
  std::uint64_t last_snapshot_ticks_ = 0;
  double last_snapshot_wall_s_ = 0.0;
  StreamSnapshot last_snapshot_;
};

}  // namespace mmr::sim
