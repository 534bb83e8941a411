// Multi-cell mesh network layer: many base stations (cells) on a line,
// many UE sessions per cell, one shared timeline.
//
// Each session owns a cell-local LinkWorld (the existing single-link
// channel abstraction), a BeamController built from the ControllerRegistry
// (any registered scheme works), and a Terragraph-style LinkStateMachine
// (core/link_state.h) driven from the controller's reported state plus
// the scored SINR -- the per-link availability ledger the network-wide
// CDFs are computed from.
//
// Cross-link coupling (net/interference.h): every other transmitting
// session leaks into a victim through its array pattern evaluated at the
// victim's global direction, so a neighbor cell's (or a co-scheduled
// co-cell session's) beam choice degrades my SINR. Handover: per-tick
// sync-beam RSRP toward every cell; a neighbor sustaining
// hysteresis_db above the serving cell for time_to_trigger_s takes the
// session (HandoverEvent through TelemetrySink::on_handover), which
// rebuilds the cell-local world and restarts the controller.
//
// Single-link collapse: every session builds, wires faults, ticks and
// scores through sim::LinkSession, the code run_experiment runs, and
// link 0 takes the trial's stream seed verbatim. A 1-cell/1-UE network
// with interference/handover degenerate is therefore the engine trial by
// construction -- same world seed, tick sequence, fault stream and
// summary bits (tests/net checks the result).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/events.h"
#include "core/link_state.h"
#include "core/metrics.h"
#include "net/interference.h"
#include "sim/engine.h"
#include "sim/runner.h"

namespace mmr::sim {
class TelemetrySink;
class TrialWorkspace;
}  // namespace mmr::sim

namespace mmr::net {

/// Sub-stream ids hung off each link's seed (same splitmix64 derivation
/// discipline as sim::kFaultSeedStream).
inline constexpr std::uint64_t kPlacementSeedStream = 0x9E75;
inline constexpr std::uint64_t kHandoverSeedStream = 0x40F0;

struct HandoverConfig {
  bool enabled = true;
  /// A3-style offset: a neighbor must beat the serving cell by this much
  /// [dB] ...
  double hysteresis_db = 3.0;
  /// ... continuously for this long before the handover fires [s].
  double time_to_trigger_s = 40.0e-3;
  /// Per-session holddown between handovers (ping-pong brake) [s].
  double min_interval_s = 100.0e-3;

  void validate() const;
};

/// Declarative network: cells on a line, `ues_per_cell` sessions each,
/// every link instantiated from the same registered scenario template.
struct NetworkSpec {
  std::size_t num_cells = 1;
  std::size_t ues_per_cell = 1;
  /// Distance between neighboring cell origins [m].
  double cell_spacing_m = 40.0;
  /// Per-link template. Link 0 keeps it verbatim (single-link collapse);
  /// links k > 0 derive their world seed and jitter their UE placement
  /// from their own Rng streams.
  sim::ScenarioSpec link_scenario;
  sim::ControllerSpec controller;
  sim::RunConfig run;
  core::LinkStateConfig link_state;
  HandoverConfig handover;
  InterferenceConfig interference;
  /// Uniform placement jitter applied to non-reference UEs' start
  /// positions [m] (0 = every UE at the template position).
  double ue_placement_jitter_m = 2.0;

  std::size_t num_links() const { return num_cells * ues_per_cell; }
  void validate() const;
};

/// Per-link outcome: the familiar LinkSummary plus the state-machine
/// availability ledger and the session's mobility/fault history.
struct LinkReport {
  std::size_t link = 0;
  std::size_t serving_cell = 0;  ///< final serving cell
  core::LinkSummary summary;
  std::size_t handovers = 0;
  /// Cumulative time in each state over the run [s].
  double time_down_s = 0.0;
  double time_acquisition_s = 0.0;
  double time_up_s = 0.0;
  double time_unstable_s = 0.0;
  core::LinkState final_state = core::LinkState::kDown;
  std::vector<core::FaultEvent> faults;

  /// Fraction of the run the state machine ledger shows LinkUp.
  double availability(double duration_s) const {
    return duration_s > 0.0 ? time_up_s / duration_s : 0.0;
  }
};

struct NetworkResult {
  std::vector<LinkReport> links;
  /// All handover events, in time order.
  std::vector<core::HandoverEvent> handovers;
  /// Cross-link aggregate: per-field means over links (num_samples
  /// summed); for a single link, links[0].summary bit for bit.
  core::LinkSummary network;
};

/// One network timeline. Construction builds every session's
/// world/controller (link 0 from stream_seed verbatim); run() executes
/// the tick loop and scores every link with interference folded into its
/// SINR.
///
/// Resumable-step contract: run() is a thin wrapper over
///   begin();  step_tick(t) for each tick;  finish(sink);
/// so a stepped run is the batch run (tests/net checks the result).
/// Callers that own the timeline -- the streaming service -- drive
/// step_tick directly, join()/leave() sessions between ticks (churn), and
/// read the per-slot tick_samples() instead of calling finish(). Slots
/// are reused through a free list so a churning table keeps bounded
/// memory.
class Network {
 public:
  /// `workspace` (optional) is bound to every session's world so the
  /// per-tick scoring path is allocation-free; it must outlive run().
  /// `populate_sessions = false` starts with an EMPTY table (streaming
  /// mode: sessions arrive via join()).
  Network(const NetworkSpec& spec, std::uint64_t stream_seed,
          sim::TrialWorkspace* workspace = nullptr,
          bool populate_sessions = true);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Run the shared timeline. When `sink` is non-null, handover events
  /// stream to sink->on_handover (in time order, after the run -- one
  /// thread, deterministic).
  NetworkResult run(sim::TelemetrySink* sink = nullptr);

  // --- Resumable-step interface -------------------------------------
  /// Validate the run config and reset per-run state (sample buffers,
  /// handover events, controller start flags). Call once before a
  /// step_tick sequence; run() calls it for you.
  void begin();
  /// Advance every live session to absolute time `t_s` (advance /
  /// score+drive / handover passes) and leave each slot's scored sample
  /// in tick_samples()[slot]. Sessions joined mid-run are evaluated at
  /// their LOCAL time t_s - birth_s.
  void step_tick(double t_s);
  /// Close every live session's availability ledger at the configured
  /// duration and aggregate reports. run() == begin + ticks + finish.
  NetworkResult finish(sim::TelemetrySink* sink = nullptr);

  // --- Streaming session table --------------------------------------
  /// Add a session between ticks. `session_id` seeds its world/placement
  /// as link `session_id` of the batch table (id 0 verbatim; the batch
  /// constructor joins links 0..n-1);
  /// `birth_s` offsets its local timeline. Reuses a free slot when one
  /// exists. Returns the slot index.
  std::size_t join(std::uint64_t session_id, double birth_s);
  /// Retire a live slot: releases its world/controller/injector and
  /// recycles the slot for the next join (bounded memory under churn).
  void leave(std::size_t slot);

  std::size_t slot_count() const { return sessions_.size(); }
  bool slot_live(std::size_t slot) const;
  std::size_t live_count() const { return live_count_; }
  /// Slot-indexed scored samples of the most recent step_tick (valid for
  /// live slots only). Storage is stable across ticks; resized on join.
  std::span<const core::LinkSample> tick_samples() const {
    return tick_samples_;
  }
  /// Retain per-tick sample history for finish()'s summaries (default
  /// true; the streaming service turns it off -- bounded memory).
  void set_record_samples(bool record) { record_samples_ = record; }

 private:
  struct Session;

  void build_session(Session& s, std::uint64_t session_id);
  /// Build the session's LinkSession for its current scenario and wire
  /// the live fault plan (seeded per link and per handover rebuild).
  void connect(Session& s);
  void size_slot_scratch();
  void advance_pass(double t_s);
  void scoring_pass(double t_s);
  void handover_pass(double t_s);
  /// Batched cross-link interference fold: per interferer (slot order),
  /// one interferer_gain_batch_into sweep over all victims, scatter-added
  /// into inr_accum_. Bitwise-identical to the historical per-victim
  /// scalar fold (same addends, same order). Allocation-free once the
  /// scratch buffers are sized.
  void accumulate_interference(double t_s);
  void evaluate_handover(Session& s, double t_s);
  void execute_handover(Session& s, double t_s, std::size_t to_cell,
                        double rsrp_from_db, double rsrp_to_db);
  /// Drive a session's state machine toward the state its controller and
  /// SINR report, using only legal transitions.
  void drive_state(Session& s, double t_s, double sinr_db);
  /// Sync-beam RSRP of cell `cell` at the session's current global
  /// position [dB rel. unit gain]. Allocation-free.
  double cell_rsrp_db(const Session& s, std::size_t cell, double t_s) const;

  NetworkSpec spec_;
  std::uint64_t stream_seed_ = 0;
  sim::TrialWorkspace* workspace_ = nullptr;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::size_t> free_slots_;
  std::size_t live_count_ = 0;
  bool record_samples_ = true;
  std::vector<core::HandoverEvent> handover_events_;
  /// Slot-indexed scoring state (stable storage, resized on join).
  std::vector<core::LinkSample> tick_samples_;
  std::vector<double> inr_accum_;
  std::vector<double> pos_x_, pos_y_;
  /// Per-interferer batch scratch: victim angles/distances/gains plus the
  /// victim slot each batch entry scatter-adds into.
  std::vector<double> batch_angles_, batch_dist_, batch_gain_;
  std::vector<std::size_t> batch_victim_;
};

/// Register the net-layer builtins into the process-wide registries:
/// controller "terragraph" (net/terragraph.h) and the crowd-blockage
/// scenarios "indoor_crowd" / "indoor_crowd_dense" (sparse indoor room
/// plus a seed-derived crowd of crossing walkers). Idempotent; call it
/// before parsing CLI flags or building NetworkSpecs that use them (the
/// engine's builtin registration cannot see this library's statics).
void register_net_builtins();

}  // namespace mmr::net
