#include "sim/world.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/error.h"
#include "dsp/kernels.h"
#include "sim/workspace.h"

namespace mmr::sim {
namespace {

// Shared between the plain and workspace-scratch order containers (the
// latter is a pmr vector): identical iota + sort, so the event process
// addresses the same stable ranks either way.
template <typename IndexVec>
void fill_stable_order(const std::vector<channel::Path>& paths,
                       IndexVec& order) {
  order.resize(paths.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (paths[a].is_los != paths[b].is_los) return paths[a].is_los;
    return std::norm(paths[a].gain) > std::norm(paths[b].gain);
  });
}

phy::EstimatorConfig make_estimator_config(const WorldConfig& config) {
  phy::EstimatorConfig est;
  est.noise_gain_0db = phy::noise_reference(config.budget);
  est.pilot_averaging_gain = config.pilot_averaging_gain;
  est.random_cfo_phase = true;
  est.sfo_slope_std_rad = config.sfo_slope_std_rad;
  return est;
}

}  // namespace

LinkWorld::LinkWorld(channel::Environment env, channel::Pose tx_pose,
                     std::shared_ptr<const channel::Trajectory> ue_trajectory,
                     WorldConfig config, Rng rng)
    : env_(std::move(env)), tx_pose_(tx_pose),
      ue_trajectory_(std::move(ue_trajectory)), config_(config), rng_(rng),
      estimator_(make_estimator_config(config), rng_.fork()) {
  MMR_EXPECTS(ue_trajectory_ != nullptr);
  set_time(0.0);
}

void LinkWorld::add_blocker(channel::GeometricBlocker blocker) {
  blockers_.push_back(std::move(blocker));
  set_time(t_s_);
}

void LinkWorld::set_event_process(channel::BlockageEventProcess process) {
  events_ = std::make_unique<channel::BlockageEventProcess>(std::move(process));
  set_time(t_s_);
}

std::vector<std::size_t> LinkWorld::stable_order() const {
  std::vector<std::size_t> order;
  fill_stable_order(paths_, order);
  return order;
}

void LinkWorld::add_irs(channel::IrsPanel panel) {
  irs_panels_.push_back(panel);
  set_time(t_s_);
}

void LinkWorld::set_time(double t_s) {
  t_s_ = t_s;
  const channel::Pose ue = ue_trajectory_->at(t_s);
  env_.trace_into(paths_, tx_pose_, ue);
  for (const auto& panel : irs_panels_) {
    channel::Path p = channel::irs_path(panel, tx_pose_, ue,
                                        env_.carrier_hz());
    if (std::norm(p.gain) > 0.0) paths_.push_back(std::move(p));
  }

  // Geometric blockers: test each path ray against each blocker body.
  for (channel::Path& p : paths_) {
    double atten = 0.0;
    const channel::Vec2* refl = p.is_los ? nullptr : &p.reflection_point;
    for (const auto& blocker : blockers_) {
      atten +=
          blocker.attenuation_db(t_s, tx_pose_.position, ue.position, refl);
    }
    p.blockage_db = atten;
  }

  // Stochastic event process: addressed by stable path index. With a
  // bound workspace the index scratch lives on the trial arena.
  if (events_ != nullptr && !paths_.empty()) {
    if (ws_ != nullptr) {
      auto& order = ws_->order();
      fill_stable_order(paths_, order);
      for (std::size_t rank = 0; rank < order.size(); ++rank) {
        paths_[order[rank]].blockage_db += events_->attenuation_db(t_s, rank);
      }
    } else {
      const std::vector<std::size_t> order = stable_order();
      for (std::size_t rank = 0; rank < order.size(); ++rank) {
        paths_[order[rank]].blockage_db += events_->attenuation_db(t_s, rank);
      }
    }
  }
}

core::LinkProbeInterface LinkWorld::probe_interface() {
  core::LinkProbeInterface link;
  link.csi = [this](const CVec& w) { return probe_csi(w, config_.rx); };
  link.cir = [this](const CVec& w, std::size_t num_taps) {
    return probe_cir(w, config_.rx, num_taps);
  };
  return link;
}

LinkWorld::JointProbe LinkWorld::joint_probe_interface() {
  JointProbe jp;
  jp.csi = [this](const CVec& tx_w, const CVec& rx_w) {
    return probe_csi(tx_w, channel::RxFrontend::beam(config_.ue_ula, rx_w));
  };
  jp.cir = [this](const CVec& tx_w, const CVec& rx_w, std::size_t num_taps) {
    return probe_cir(tx_w, channel::RxFrontend::beam(config_.ue_ula, rx_w),
                     num_taps);
  };
  return jp;
}

CVec LinkWorld::probe_csi(const CVec& tx_w, const channel::RxFrontend& rx) {
  const std::size_t n = config_.spec.num_subcarriers;
  CVec est(n);
  if (paths_.empty()) {
    // Fully occluded: the estimate is pure noise.
    dsp::fill_complex_normal(rng_, est.data(), n,
                             phy::noise_reference(config_.budget) /
                                 config_.pilot_averaging_gain);
  } else if (ws_ == nullptr) {
    estimator_.estimate_into(
        channel::effective_csi(paths_, config_.tx_ula, tx_w, config_.spec, rx)
            .data(),
        n, est.data());
  } else {
    auto& truth = ws_->csi();
    truth.resize(n);
    channel::effective_csi_into(paths_, config_.tx_ula, tx_w, config_.spec,
                                rx, workspace_freqs(), truth.data());
    estimator_.estimate_into(truth.data(), n, est.data());
  }
  return est;
}

CVec LinkWorld::probe_cir(const CVec& tx_w, const channel::RxFrontend& rx,
                          std::size_t num_taps) {
  const double var = phy::noise_reference(config_.budget) /
                     config_.pilot_averaging_gain /
                     static_cast<double>(config_.spec.num_subcarriers);
  CVec cir;
  if (paths_.empty()) {
    cir.assign(num_taps, cplx{});
  } else {
    const double jitter = rng_.normal(0.0, config_.timing_jitter_std_s);
    cir = channel::effective_cir(paths_, config_.tx_ula, tx_w, config_.spec,
                                 num_taps, rx, std::abs(jitter));
  }
  // CFO: a common rotation leaves |taps| intact but keeps controllers
  // honest about not relying on absolute phase.
  const cplx rot = std::polar(1.0, rng_.uniform(0.0, 2.0 * 3.14159265358979));
  // AWGN, a stack chunk at a time (the fills continue one draw sequence).
  std::array<cplx, 32> noise;
  for (std::size_t i = 0; i < cir.size(); i += noise.size()) {
    const std::size_t m = std::min(noise.size(), cir.size() - i);
    dsp::fill_complex_normal(rng_, noise.data(), m, var);
    for (std::size_t j = 0; j < m; ++j) cir[i + j] = cir[i + j] * rot + noise[j];
  }
  return cir;
}

const double* LinkWorld::workspace_freqs() const {
  const std::size_t n = config_.spec.num_subcarriers;
  auto& freqs = ws_->freqs();
  if (freqs.size() != n) {
    freqs.resize(n);
    channel::fill_freq_grid(config_.spec, freqs.data());
  }
  return freqs.data();
}

double LinkWorld::true_snr_db_joint(const CVec& tx_w, const CVec& rx_w) const {
  if (paths_.empty()) return -300.0;
  const auto rx = channel::RxFrontend::beam(config_.ue_ula, rx_w);
  const double power = channel::received_power(paths_, config_.tx_ula, tx_w,
                                               config_.spec, rx);
  if (power <= 0.0) return -300.0;
  return config_.budget.snr_db(power);
}

double LinkWorld::true_power(const CVec& tx_weights) const {
  if (paths_.empty()) return 0.0;
  if (ws_ != nullptr) {
    auto& csi = ws_->csi();
    csi.resize(config_.spec.num_subcarriers);
    return channel::received_power_prepared(paths_, config_.tx_ula,
                                            tx_weights, config_.spec,
                                            config_.rx, workspace_freqs(),
                                            csi.data());
  }
  return channel::received_power(paths_, config_.tx_ula, tx_weights,
                                 config_.spec, config_.rx);
}

double LinkWorld::true_snr_db(const CVec& tx_weights) const {
  const double power = true_power(tx_weights);
  if (power <= 0.0) return -300.0;
  return config_.budget.snr_db(power);
}

CVec LinkWorld::true_per_antenna_channel() const {
  if (paths_.empty()) return CVec(config_.tx_ula.num_elements, cplx{1e-15, 0});
  return channel::per_antenna_channel(paths_, config_.tx_ula, config_.rx);
}

double LinkWorld::power_for_snr(double snr_db) const {
  return config_.budget.gain_for_snr(snr_db);
}

}  // namespace mmr::sim
