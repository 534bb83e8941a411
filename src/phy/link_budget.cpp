#include "phy/link_budget.h"

#include <cmath>

#include "common/error.h"
#include "common/units.h"

namespace mmr::phy {

double LinkBudget::noise_floor_dbm() const {
  MMR_EXPECTS(bandwidth_hz > 0.0);
  return -174.0 + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

double LinkBudget::snr_db(double channel_power_gain_linear) const {
  const double rx_dbm = tx_power_dbm + to_db(channel_power_gain_linear) -
                        implementation_loss_db;
  return rx_dbm - noise_floor_dbm();
}

double LinkBudget::gain_for_snr(double target_snr_db) const {
  const double rx_dbm = target_snr_db + noise_floor_dbm();
  return from_db(rx_dbm - tx_power_dbm + implementation_loss_db);
}

LinkBudget LinkBudget::paper_indoor() {
  return LinkBudget{20.0, 7.0, 400.0e6, 3.0};
}

LinkBudget LinkBudget::paper_outdoor() {
  return LinkBudget{24.0, 7.0, 100.0e6, 3.0};
}

double sinr_db(double snr_db, double inr_linear) {
  MMR_EXPECTS(inr_linear >= 0.0);
  // to_db(1.0) == 0.0 exactly, so a zero-INR victim keeps its SNR bits.
  return snr_db - to_db(1.0 + inr_linear);
}

}  // namespace mmr::phy
