// Telemetry for the experiment pipeline: the records a run writes as
// JSON lines, on stdout and to --json-out.
//
// A TelemetrySink hears five events: an injected fault, a handover, a
// quarantined trial, a streaming snapshot, and a finished sweep (per-trial
// summaries + timing + labels). JsonLinesSink writes each as one JSON
// line; its sweep line is byte-compatible with write_sweep_json.
// Per-tick samples and per-trial summaries are not events: they come back
// in RunResult / EngineResult.
//
// Ordering contract: sinks are driven from ONE thread. When the Engine
// fans trials across workers it keeps per-trial events and replays them
// to the sink in trial-index order after the sweep barrier, so sink output
// is deterministic and independent of the worker schedule.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>

#include "core/events.h"
#include "core/metrics.h"
#include "sim/sweep.h"

namespace mmr::sim {

/// One periodic snapshot of a live streaming run (sim/streaming.h), as
/// delivered to TelemetrySink::on_snapshot: the merged shard accumulators
/// projected to scalars at a snapshot boundary. POD by design -- copying
/// one never allocates.
struct StreamSnapshot {
  /// Shared-timeline time of the snapshot boundary [s].
  double t_s = 0.0;
  /// Snapshot ordinal (0-based, consecutive as emitted).
  std::uint64_t index = 0;
  /// Live sessions at the boundary and cumulative joins/leaves.
  std::uint64_t live_sessions = 0;
  std::uint64_t total_joined = 0;
  std::uint64_t total_left = 0;
  /// Session-ticks scored this window / since the run began.
  std::uint64_t window_ticks = 0;
  std::uint64_t total_ticks = 0;
  /// Scored session-ticks per wall second over the window (0 when the
  /// service runs with freeze_timing -- byte-stable output).
  double session_ticks_per_s = 0.0;
  /// Availability = usable / ticks (window and cumulative).
  double window_availability = 0.0;
  double availability = 0.0;
  std::uint64_t outage_ticks = 0;
  /// Cumulative SINR moments and P² quantile estimates [dB].
  double snr_mean_db = 0.0;
  double snr_stddev_db = 0.0;
  double snr_p50_db = 0.0;
  double snr_p99_db = 0.0;
  double snr_p999_db = 0.0;
  /// Cumulative throughput moments and P² quantile estimates [bit/s].
  double tput_mean_bps = 0.0;
  double tput_stddev_bps = 0.0;
  double tput_p50_bps = 0.0;
  double tput_p99_bps = 0.0;
  double tput_p999_bps = 0.0;
  /// Snapshots shed before delivery so far. Always 0: the service
  /// delivers every snapshot inline. Kept so the snapshot record's fields
  /// stay the same for consumers.
  std::uint64_t dropped = 0;
};

/// One completed sweep campaign, as delivered to TelemetrySink::on_sweep.
struct SweepRecord {
  std::string name;
  std::span<const SweepTrial<core::LinkSummary>> trials;
  SweepTiming timing;
  /// One label per trial, or empty when the campaign does not tag trials.
  std::span<const std::string> labels;
  /// Quarantined trials (empty when every trial succeeded).
  std::span<const TrialFailure> failures;
};

class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  /// An injected fault or controller degradation during a trial (only
  /// emitted when the trial's FaultPlan is enabled).
  virtual void on_fault(const core::FaultEvent& event) { (void)event; }
  /// A UE session switched serving cells during a network trial (only
  /// emitted by net-layer campaigns with handover enabled).
  virtual void on_handover(const core::HandoverEvent& event) { (void)event; }
  /// A trial was quarantined after exhausting its retry budget (delivered
  /// after the trial's fault events, in trial-index order).
  virtual void on_trial_failure(const TrialFailure& failure) {
    (void)failure;
  }
  /// A periodic snapshot of a live streaming run (sim/streaming.h). Like
  /// every other event, delivered from ONE thread (the service's
  /// orchestrator), in emission order.
  virtual void on_snapshot(const StreamSnapshot& snapshot) {
    (void)snapshot;
  }
  /// A whole sweep campaign finished (one record per Engine::run).
  virtual void on_sweep(const SweepRecord& record) { (void)record; }
};

/// Emits one JSON line per sweep record -- the exact bytes
/// write_sweep_json produces, so ported benches keep their machine-read
/// output stable. Fault events are emitted as their own JSON lines
/// ({"fault": "...", ...}); a no-fault run produces none, keeping its
/// byte stream unchanged. Handovers, trial failures and snapshots appear
/// as {"handover": {...}}, {"trial_failure": {...}} and
/// {"snapshot": {...}} lines.
///
/// Durability contract: with the default `flush_every_n = 1` the sink
/// flushes the stream after EVERY record it writes (fault, handover,
/// trial failure, snapshot, sweep), so a process killed at an arbitrary
/// instruction loses at most the one record being written -- never
/// previously delivered lines sitting in a stream buffer. (Flushing
/// pushes bytes to the OS; callers that need power-loss durability should
/// write through common::AtomicFile, as the bench CLI's --json-out does.)
///
/// At streaming snapshot rates unconditional flushing dominates sink
/// cost; `flush_every_n = N > 1` amortizes it to one flush per N records
/// (at most N records lost on a kill). `flush_every_n = 0` never flushes
/// mid-stream (the destructor-driven stream flush still applies).
/// Campaigns keep the durable default.
class JsonLinesSink final : public TelemetrySink {
 public:
  explicit JsonLinesSink(std::ostream& os, std::size_t flush_every_n = 1)
      : os_(os), flush_every_n_(flush_every_n) {}

  void on_fault(const core::FaultEvent& event) override;
  void on_handover(const core::HandoverEvent& event) override;
  void on_trial_failure(const TrialFailure& failure) override;
  void on_snapshot(const StreamSnapshot& snapshot) override;
  void on_sweep(const SweepRecord& record) override;

 private:
  /// One record was written: flush per the flush_every_n policy.
  void record_written();

  std::ostream& os_;
  std::size_t flush_every_n_ = 1;
  std::size_t records_since_flush_ = 0;
};

}  // namespace mmr::sim
