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
#include "phy/estimator.h"
#include "phy/link_budget.h"

namespace mmr::sim {

class TrialWorkspace;

struct WorldConfig {
  channel::WidebandSpec spec;
  phy::LinkBudget budget = phy::LinkBudget::paper_indoor();
  array::Ula tx_ula{8, 0.5};
  channel::RxFrontend rx = channel::RxFrontend::omni();
  /// UE array used by joint_probe_interface (directional-UE experiments).
  array::Ula ue_ula{4, 0.5};
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
  void set_event_process(channel::BlockageEventProcess process);
  /// Deploy an intelligent reflecting surface (Section 8 future work):
  /// adds an engineered TX->panel->RX path on every trace.
  void add_irs(channel::IrsPanel panel);

  /// Bind per-trial scratch for the scoring hot path (set_time +
  /// true_power/true_snr_db) and the CSI probes: the frequency grid is
  /// cached and the CSI / path-order scratch live on the workspace arena,
  /// so the steady-state scoring loop allocates nothing and a CSI probe
  /// allocates only its result. Results are bit-identical with or
  /// without a workspace. Pass nullptr to unbind. The workspace must
  /// outlive this world (or the unbind).
  void bind_workspace(TrialWorkspace* ws) { ws_ = ws; }

  /// Advance the world: re-trace paths for the UE pose at t and apply all
  /// blockage sources.
  void set_time(double t_s);

  double time() const { return t_s_; }
  const std::vector<channel::Path>& paths() const { return paths_; }
  const WorldConfig& config() const { return config_; }

  /// Impaired probe interface for controllers. The returned lambdas
  /// reference this world; keep it alive while they are used.
  core::LinkProbeInterface probe_interface();

  /// Joint-end probing for directional-UE experiments (Section 4.4):
  /// the caller supplies BOTH the gNB weights and the UE weights
  /// (applied over ue_ula). Same impairments as probe_interface().
  struct JointProbe {
    std::function<CVec(const CVec& tx_w, const CVec& rx_w)> csi;
    std::function<CVec(const CVec& tx_w, const CVec& rx_w,
                       std::size_t num_taps)> cir;
  };
  JointProbe joint_probe_interface();

  /// True SNR with explicit weights at both ends.
  double true_snr_db_joint(const CVec& tx_w, const CVec& rx_w) const;

  /// True mean channel power gain for given TX weights (linear).
  double true_power(const CVec& tx_weights) const;
  /// True SNR [dB] through the link budget.
  double true_snr_db(const CVec& tx_weights) const;
  /// True per-antenna channel (oracle access).
  CVec true_per_antenna_channel() const;
  /// Channel power gain corresponding to a target SNR (outage thresholds).
  double power_for_snr(double snr_db) const;

 private:
  /// Stable path index for the event process: 0 = LOS, then NLOS paths by
  /// descending nominal power.
  std::vector<std::size_t> stable_order() const;

  /// The impaired probes behind both interfaces, received through `rx`.
  CVec probe_csi(const CVec& tx_w, const channel::RxFrontend& rx);
  CVec probe_cir(const CVec& tx_w, const channel::RxFrontend& rx,
                 std::size_t num_taps);

  /// The bound workspace's subcarrier grid, filled on first use.
  const double* workspace_freqs() const;

  channel::Environment env_;
  channel::Pose tx_pose_;
  std::shared_ptr<const channel::Trajectory> ue_trajectory_;
  WorldConfig config_;
  Rng rng_;
  phy::ChannelEstimator estimator_;
  std::vector<channel::GeometricBlocker> blockers_;
  std::vector<channel::IrsPanel> irs_panels_;
  std::unique_ptr<channel::BlockageEventProcess> events_;
  std::vector<channel::Path> paths_;
  TrialWorkspace* ws_ = nullptr;  ///< not owned; see bind_workspace
  double t_s_ = 0.0;
};

}  // namespace mmr::sim
