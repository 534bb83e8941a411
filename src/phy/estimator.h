// Channel estimation from reference signals, with the hardware
// impairments that shaped mmReliable's design: CFO makes the absolute
// phase of consecutive probes unpredictable, SFO adds a drifting linear
// phase across subcarriers, and AWGN perturbs everything. Channel
// MAGNITUDE is the only stable observable across probes (paper
// Section 3.3), which is why the two-probe estimator works on |h|^2.
#pragma once

#include "common/rng.h"
#include "common/types.h"
#include "phy/link_budget.h"

namespace mmr::phy {

struct EstimatorConfig {
  /// Channel power gain (linear) at which the per-subcarrier estimation
  /// SNR is 0 dB. Derive from a LinkBudget via noise_reference().
  double noise_gain_0db = 1e-12;
  /// Linear noise reduction from averaging pilot resource elements within
  /// one reference signal.
  double pilot_averaging_gain = 10.0;
  /// If true, each probe gets an independent uniform carrier phase (CFO
  /// between probes is unpredictable). If false, phase random-walks with
  /// the std below.
  bool random_cfo_phase = true;
  /// Phase random-walk std per probe [rad] when random_cfo_phase is false.
  double cfo_walk_std_rad = 0.5;
  /// Std of the SFO-induced linear phase slope [rad per subcarrier].
  double sfo_slope_std_rad = 0.01;
};

/// Convenience: noise_gain_0db for a given link budget.
double noise_reference(const LinkBudget& budget);

class ChannelEstimator {
 public:
  ChannelEstimator(EstimatorConfig config, Rng rng);

  /// One probe: corrupt the true per-subcarrier CSI with AWGN and
  /// CFO/SFO phase impairments.
  CVec estimate(const CVec& true_csi);

  /// Allocation-free form of estimate: writes the n-subcarrier estimate of
  /// true_csi[0..n) into out[0..n), which must not overlap true_csi.
  /// Same draws and same values as estimate.
  void estimate_into(const cplx* true_csi, std::size_t n, cplx* out);

  /// Magnitude-only power estimate: mean |H(k)|^2 across subcarriers of a
  /// fresh probe. Robust to CFO/SFO by construction.
  double estimate_power(const CVec& true_csi);

  /// Ideal (impairment-free) variant for oracle baselines.
  static double true_power(const CVec& csi);

  const EstimatorConfig& config() const { return config_; }

 private:
  EstimatorConfig config_;
  Rng rng_;
  double cfo_phase_ = 0.0;
};

}  // namespace mmr::phy
