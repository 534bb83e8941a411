#include "phy/estimator.h"

#include <cmath>

#include "common/angles.h"
#include "common/error.h"
#include "dsp/kernels.h"

namespace mmr::phy {

double noise_reference(const LinkBudget& budget) {
  return budget.gain_for_snr(0.0);
}

ChannelEstimator::ChannelEstimator(EstimatorConfig config, Rng rng)
    : config_(config), rng_(rng) {
  MMR_EXPECTS(config_.noise_gain_0db > 0.0);
  MMR_EXPECTS(config_.pilot_averaging_gain >= 1.0);
}

CVec ChannelEstimator::estimate(const CVec& true_csi) {
  MMR_EXPECTS(!true_csi.empty());
  CVec est(true_csi.size());
  estimate_into(true_csi.data(), true_csi.size(), est.data());
  return est;
}

void ChannelEstimator::estimate_into(const cplx* true_csi, std::size_t n,
                                     cplx* out) {
  MMR_EXPECTS(n > 0);
  // CFO: per-probe carrier phase.
  if (config_.random_cfo_phase) {
    cfo_phase_ = rng_.uniform(0.0, 2.0 * kPi);
  } else {
    cfo_phase_ = wrap_2pi(cfo_phase_ +
                          rng_.normal(0.0, config_.cfo_walk_std_rad));
  }
  // SFO: linear phase ramp across subcarriers, fresh slope per probe.
  const double slope = rng_.normal(0.0, config_.sfo_slope_std_rad);
  // AWGN in channel-gain units. |H|^2 / noise_var == estimation SNR. The
  // noise is drawn into `out`, which the impairment kernel then
  // overwrites element by element.
  const double noise_var =
      config_.noise_gain_0db / config_.pilot_averaging_gain;
  dsp::fill_complex_normal(rng_, out, n, noise_var);
  dsp::impair_csi(true_csi, out, cfo_phase_, slope, n, out);
}

double ChannelEstimator::estimate_power(const CVec& true_csi) {
  const CVec est = estimate(true_csi);
  return true_power(est);
}

double ChannelEstimator::true_power(const CVec& csi) {
  MMR_EXPECTS(!csi.empty());
  double acc = 0.0;
  for (const cplx& h : csi) acc += std::norm(h);
  return acc / static_cast<double>(csi.size());
}

}  // namespace mmr::phy
