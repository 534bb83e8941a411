// Link budget: maps the dimensionless channel/beamforming gains produced
// by the channel module to absolute SNR. Calibrated to the paper's
// testbed: 28 GHz, ~30 dBm EIRP-class transmit power into a 64-element
// array, 400 MHz noise bandwidth, indoor 7 m links measuring ~27 dB SNR
// (Fig. 15a).
#pragma once

namespace mmr::phy {

struct LinkBudget {
  /// Conducted transmit power [dBm] (before array gain; array gain comes
  /// out of the beamforming math itself).
  double tx_power_dbm = 20.0;
  /// Receiver noise figure [dB].
  double noise_figure_db = 7.0;
  /// Noise bandwidth [Hz].
  double bandwidth_hz = 400.0e6;
  /// Miscellaneous implementation loss [dB].
  double implementation_loss_db = 3.0;

  /// Thermal noise floor [dBm]: -174 + 10 log10(B) + NF.
  double noise_floor_dbm() const;

  /// SNR [dB] for a given end-to-end power gain (linear, includes path
  /// loss, blockage, and both array factors).
  double snr_db(double channel_power_gain_linear) const;

  /// Inverse: the channel power gain needed to hit a target SNR.
  double gain_for_snr(double snr_db) const;

  /// Paper testbed defaults (indoor, 400 MHz).
  static LinkBudget paper_indoor();
  /// Outdoor compact setup (USRP X300, 100 MHz).
  static LinkBudget paper_outdoor();
};

/// Fold an interference-to-noise ratio into a serving-link SNR:
/// SINR_dB = SNR_dB - 10 log10(1 + INR). Bitwise identity with the input
/// SNR when inr_linear == 0, and <= SNR for every INR >= 0.
double sinr_db(double snr_db, double inr_linear);

}  // namespace mmr::phy
