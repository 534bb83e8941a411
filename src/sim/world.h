// LinkWorld: one gNB-UE link inside an environment, advanced over time.
//
// This is the software stand-in for the paper's testbed: it owns the
// traced multipath state, moves the UE along its trajectory, runs blockers
// through the scene, and exposes exactly two faces:
//   * the IMPAIRED face (LinkProbeInterface) that controllers see -- CSI
//     and CIR estimates with AWGN, CFO, SFO, and timing jitter; and
//   * the TRUE face the experiment harness uses to score links (exact SNR
//     for any weights, exact per-antenna channel for the oracle).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "array/geometry.h"
#include "channel/blockage.h"
#include "channel/environment.h"
#include "channel/irs.h"
#include "channel/mobility.h"
#include "channel/wideband.h"
#include "common/rng.h"
#include "core/link_interface.h"
#include "dsp/kernels.h"
#include "phy/estimator.h"
#include "phy/link_budget.h"

namespace mmr::sim {

class TrialWorkspace;

struct WorldConfig {
  channel::WidebandSpec spec;
  phy::LinkBudget budget = phy::LinkBudget::paper_indoor();
  array::Ula tx_ula{8, 0.5};
  channel::RxFrontend rx = channel::RxFrontend::omni();
  /// Pilot averaging gain of the channel estimator.
  double pilot_averaging_gain = 20.0;
  /// Std of the receiver timing error applied to CIR reports [s].
  double timing_jitter_std_s = 0.15e-9;
  /// SFO-induced phase slope std [rad/subcarrier].
  double sfo_slope_std_rad = 0.005;
};

class LinkWorld {
 public:
  LinkWorld(channel::Environment env, channel::Pose tx_pose,
            std::shared_ptr<const channel::Trajectory> ue_trajectory,
            WorldConfig config, Rng rng);

  void add_blocker(channel::GeometricBlocker blocker);
  /// Deploy an intelligent reflecting surface (Section 8 future work):
  /// adds an engineered TX->panel->RX path on every trace.
  void add_irs(channel::IrsPanel panel);

  /// Bind per-trial scratch for the scoring hot path (set_time +
  /// true_power/true_snr_db) and the CSI probes: the frequency grid and
  /// its affine fit are cached, the tick's delay-phasor table is filled
  /// once per tick into the workspace's phasor slot (reserved here for
  /// the scene's largest path count), and the CSI scratch lives on the
  /// workspace arena, so the steady-state scoring loop allocates nothing
  /// and a CSI probe allocates only its result. Results are bit-identical
  /// with or without a workspace. Pass nullptr to unbind. The workspace
  /// must outlive this world (or the unbind).
  void bind_workspace(TrialWorkspace* ws);

  /// Advance the world: re-trace paths for the UE pose at t and apply the
  /// blockers. With a workspace bound, the tick takes a fresh tick id, so
  /// the previous tick's phasor table is never reused.
  void set_time(double t_s);

  double time() const { return t_s_; }
  const std::vector<channel::Path>& paths() const { return paths_; }
  const WorldConfig& config() const { return config_; }

  /// Impaired probe interface for controllers. The returned lambdas
  /// reference this world; keep it alive while they are used.
  core::LinkProbeInterface probe_interface();

  /// True mean channel power gain for given TX weights (linear).
  double true_power(const CVec& tx_weights) const;
  /// True SNR [dB] through the link budget.
  double true_snr_db(const CVec& tx_weights) const;
  /// True per-antenna channel (oracle access).
  CVec true_per_antenna_channel() const;
  /// Channel power gain corresponding to a target SNR (outage thresholds).
  double power_for_snr(double snr_db) const;

 private:
  /// The impaired probes behind probe_interface(), received through
  /// config_.rx.
  CVec probe_csi(const CVec& tx_w);
  CVec probe_cir(const CVec& tx_w, std::size_t num_taps);

  /// The bound workspace's subcarrier grid, filled on first use.
  const dsp::FreqGrid& workspace_grid() const;
  /// The bound workspace's delay-phasor table of this tick's paths,
  /// filled on the tick's first CSI synthesis.
  const cplx* tick_phasors() const;
  /// Mean received power through config_.rx from the workspace scratch
  /// and the tick's phasor table (the bound-world face of
  /// channel::received_power).
  double workspace_power(const CVec& tx_w) const;

  channel::Environment env_;
  channel::Pose tx_pose_;
  std::shared_ptr<const channel::Trajectory> ue_trajectory_;
  WorldConfig config_;
  Rng rng_;
  phy::ChannelEstimator estimator_;
  std::vector<channel::GeometricBlocker> blockers_;
  std::vector<channel::IrsPanel> irs_panels_;
  std::vector<channel::Path> paths_;
  TrialWorkspace* ws_ = nullptr;  ///< not owned; see bind_workspace
  std::uint64_t tick_id_ = 0;     ///< ws_ phasor-slot key of this tick
  double t_s_ = 0.0;
};

}  // namespace mmr::sim
