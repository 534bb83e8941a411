// Experiment runner: drives one controller through one world and scores
// the link at every tick, producing the LinkSample series all figures are
// computed from. The per-link tick is LinkSession, which engine trials,
// network sessions and streaming sessions all run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/controller_base.h"
#include "core/events.h"
#include "core/metrics.h"
#include "sim/faults.h"
#include "sim/world.h"

namespace mmr::sim {

struct ScenarioSpec;
struct ControllerSpec;
class TelemetrySink;
class TrialWorkspace;

struct RunConfig {
  double duration_s = 1.0;     ///< paper: 1 s experiments
  double tick_s = 2.5e-3;      ///< CSI-RS cadence driving the controller
  double outage_snr_db = 6.0;  ///< decode floor
  /// Fixed protocol overhead discounted from throughput (reference
  /// signals etc.; paper Section 5.2: ~0.5%).
  double protocol_overhead = 0.005;
  /// Fault model applied to the probe/CSI path the controller sees. The
  /// default (all-zero) plan is inert: no injector is constructed and the
  /// run is byte-identical to one without the field.
  FaultPlan faults;

  std::size_t num_ticks() const {
    return static_cast<std::size_t>(duration_s / tick_s);
  }
  /// MMR_EXPECTS (std::logic_error) unless duration and tick are positive
  /// and finite, the outage threshold is finite, protocol_overhead lies
  /// in [0, 1), and the fault plan validates.
  void validate() const;
};

struct RunResult {
  std::vector<core::LinkSample> samples;
  core::LinkSummary summary;
  /// Injected faults and controller degradations, in emission order.
  /// Empty unless the run's FaultPlan is enabled.
  std::vector<core::FaultEvent> fault_events;
};

/// Seed of a link's live fault plan. An authored seed of 0 derives a
/// stream from the link's seed (sub-stream kFaultSeedStream), decoupled
/// from the world's randomness and stable across jobs counts; an authored
/// seed is kept on link 0 and forked as derive(seed, link) on link > 0.
/// The n-th rebuild of a link (a handover) forks once more with n.
std::uint64_t link_fault_seed(std::uint64_t authored_seed,
                              std::uint64_t link_seed, std::size_t link = 0,
                              std::size_t rebuild = 0);

/// One link, written once: (a) its build, (b) its fault wiring, (c) its
/// tick and (d) its scoring. A 1-link network or a 1-session streaming
/// service matches the engine trial because it runs this code.
class LinkSession {
 public:
  /// Drive a world and controller the caller owns and keeps alive.
  LinkSession(LinkWorld& world, core::BeamController& controller);
  /// (a) Build and own the link: ScenarioRegistry::instance() world,
  /// bound to `workspace` when non-null (it must outlive the session),
  /// then the ControllerRegistry::instance() controller.
  LinkSession(const ScenarioSpec& scenario, const ControllerSpec& controller,
              TrialWorkspace* workspace);
  ~LinkSession() { disarm_faults(); }

  LinkSession(const LinkSession&) = delete;
  LinkSession& operator=(const LinkSession&) = delete;

  /// (b) Interpose a FaultInjector running `plan` (enabled, seed resolved)
  /// on the probe path, once per session; `listener` hears every injected
  /// fault and controller degradation as it happens.
  void arm_faults(const FaultPlan& plan, const core::FaultListener& listener);
  /// Detach the listener again (it usually captures its caller's frame).
  void disarm_faults();

  /// (c) Move the world to local time `t_s`, tick the injector, then
  /// start the controller on the first tick (or after restart()),
  /// otherwise step it.
  void advance(double t_s);
  void restart() { started_ = false; }

  /// (d) The tick's sample: the controller's availability, the TRUE
  /// channel's SNR under its beam -- an SINR when `interference_power`
  /// (LinkWorld::power_for_snr units) is nonzero -- and the MCS
  /// throughput after `protocol_overhead`.
  core::LinkSample score(double t_s, double protocol_overhead,
                         double interference_power = 0.0) const;

  const LinkWorld& world() const { return *world_; }
  const core::BeamController& controller() const { return *controller_; }

 private:
  // Destroyed in reverse: injector, then controller, then world.
  std::optional<LinkWorld> owned_world_;
  std::unique_ptr<core::BeamController> owned_controller_;
  LinkWorld* world_ = nullptr;
  core::BeamController* controller_ = nullptr;
  std::unique_ptr<FaultInjector> injector_;
  core::LinkProbeInterface iface_;
  bool started_ = false;
};

/// Run `controller` over `world` for the configured duration through a
/// LinkSession: start()ed at t=0, step()ped every tick, each tick scored.
/// `config` is validated up front (RunConfig::validate).
///
/// When `sink` is non-null it receives on_run_begin, one on_sample per
/// tick, and on_run_end with the summary -- the telemetry never perturbs
/// the result. When `config.faults` is enabled (its seed used as is),
/// every injected fault / controller degradation is recorded in
/// RunResult::fault_events and streamed to sink->on_fault as it happens.
RunResult run_experiment(LinkWorld& world, core::BeamController& controller,
                         const RunConfig& config = {},
                         TelemetrySink* sink = nullptr);

/// The same run over a LinkSession that has not ticked yet (the engine
/// trial builds its link through the registries this way).
RunResult run_experiment(LinkSession& link, const RunConfig& config,
                         TelemetrySink* sink = nullptr);

}  // namespace mmr::sim
