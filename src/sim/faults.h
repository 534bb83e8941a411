// Deterministic fault injection for the probe/CSI path.
//
// mmReliable's reliability claims only mean something if the controller
// pipeline degrades gracefully when its measurements do -- so FaultPlan
// declares a perturbation model for everything a controller sees through
// LinkProbeInterface, and FaultInjector applies it between the world and
// the controller:
//   * dropped probe reports (the report never arrives: empty CSI/CIR),
//   * stale-CSI epochs (feedback frozen: the last delivered report is
//     replayed for k consecutive ticks),
//   * per-tap amplitude/phase noise and quantization error,
//   * NaN/Inf channel taps (corrupted feedback words),
//   * SNR-report bias (mis-calibrated receiver gain).
//
// Determinism: the injector draws from its own Rng seeded by
// FaultPlan::seed, which sim::link_fault_seed (sim/runner.h) resolves per
// link from the link's stream seed (sub-stream kFaultSeedStream), so jobs=K
// stays bit-identical to jobs=1 and faulted sweeps reproduce like clean
// ones. A default (all-zero) plan is inert: no injector is constructed at
// all, keeping the no-fault path byte-identical to a plan-free run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/events.h"
#include "core/link_interface.h"

namespace mmr::sim {

/// Declarative fault model carried on RunConfig (and through it on
/// ExperimentSpec::run). All-zero (the default) means no faults.
struct FaultPlan {
  /// Probability a probe report is lost in flight (empty report).
  double probe_drop_prob = 0.0;
  /// Per-tick probability of entering a stale-CSI epoch while not in one.
  double stale_epoch_prob = 0.0;
  /// Length of a stale-CSI epoch in controller ticks.
  std::size_t stale_epoch_ticks = 4;
  /// Std-dev of per-tap phase noise [rad].
  double csi_phase_noise_rad = 0.0;
  /// Std-dev of per-tap amplitude noise [dB] (log-normal perturbation).
  double csi_amp_noise_db = 0.0;
  /// Quantize each tap's I/Q to this many bits (0 = off, max 24).
  std::size_t csi_quant_bits = 0;
  /// Probability a report gets one NaN/Inf tap planted in it.
  double nan_tap_prob = 0.0;
  /// Constant power bias applied to every report [dB] (negative = the
  /// receiver under-reports its SNR).
  double snr_bias_db = 0.0;
  /// Injector stream seed. 0 = derive from the link's stream seed
  /// (sub-stream kFaultSeedStream; see sim::link_fault_seed).
  std::uint64_t seed = 0;

  /// True when any perturbation is switched on.
  bool enabled() const;
  /// MMR_EXPECTS (std::logic_error) on malformed plans: probabilities
  /// outside [0, 1], negative or non-finite noise sigmas, non-finite
  /// bias, zero-length stale epochs, quantization beyond 24 bits.
  void validate() const;
};

/// Named escalation presets for the CLI and the resilience bench:
/// "none" < "light" < "moderate" < "heavy". Unknown names throw
/// std::invalid_argument listing the registered presets (same contract as
/// the scenario/controller registries).
FaultPlan fault_preset(const std::string& name);
/// Preset names in escalation order.
std::vector<std::string> fault_preset_names();

/// Sub-stream id each link's fault seed is forked from (link_fault_seed).
inline constexpr std::uint64_t kFaultSeedStream = 0xFA17;

/// Wraps a LinkProbeInterface and perturbs every report per a FaultPlan.
/// Single-threaded, one per trial; must outlive the interface() handles.
class FaultInjector {
 public:
  /// `plan` must be valid (validate() passes). The injector keeps its own
  /// copy of `inner` and draws all randomness from Rng(plan.seed).
  FaultInjector(const FaultPlan& plan, core::LinkProbeInterface inner);

  /// Listener for injected-fault events (kProbeDropped, kStaleEpoch,
  /// kNonFiniteTap). Pass nullptr to detach.
  void set_listener(core::FaultListener listener);

  /// Advance per-tick state (stale-epoch entry/decay) at time t. Call
  /// once per controller tick, before the controller probes.
  void on_tick(double t_s);

  /// The perturbed probe interface to hand the controller. References
  /// this injector; do not use after the injector is destroyed.
  core::LinkProbeInterface interface();

  /// True while a stale-CSI epoch is freezing feedback.
  bool in_stale_epoch() const { return stale_ticks_left_ > 0; }

  // Injection counters (for tests and campaign reports).
  std::size_t probes_seen() const { return probes_seen_; }
  std::size_t probes_dropped() const { return probes_dropped_; }
  std::size_t stale_replays() const { return stale_replays_; }
  std::size_t nonfinite_taps() const { return nonfinite_taps_; }

 private:
  CVec probe_csi(const CVec& tx_weights);
  CVec probe_cir(const CVec& tx_weights, std::size_t num_taps);
  /// Drop/perturb one fresh report; updates the stale-replay cache.
  CVec deliver(CVec report, CVec& last);
  void perturb(CVec& report);
  void emit(core::FaultEventKind kind, std::size_t beam, double value);

  FaultPlan plan_;
  core::LinkProbeInterface inner_;
  Rng rng_;
  core::FaultListener listener_;

  double t_s_ = 0.0;
  std::size_t stale_ticks_left_ = 0;
  CVec last_csi_;
  CVec last_cir_;
  std::size_t last_cir_taps_ = 0;

  std::size_t probes_seen_ = 0;
  std::size_t probes_dropped_ = 0;
  std::size_t stale_replays_ = 0;
  std::size_t nonfinite_taps_ = 0;
};

}  // namespace mmr::sim
