#include "net/interference.h"

#include <cmath>
#include <complex>

#include "array/pattern.h"
#include "channel/pathloss.h"
#include "common/error.h"
#include "common/units.h"

namespace mmr::net {

void InterferenceConfig::validate() const {
  MMR_EXPECTS(std::isfinite(coupling_loss_db));
  MMR_EXPECTS(coupling_loss_db >= 0.0);
}

double interferer_gain(const array::Ula& ula, const CVec& weights,
                       double victim_angle_rad, double distance_m,
                       double carrier_hz, double coupling_loss_db) {
  MMR_EXPECTS(distance_m > 0.0);
  MMR_EXPECTS(carrier_hz > 0.0);
  MMR_EXPECTS(coupling_loss_db >= 0.0);
  // Free-space path-loss models break down inside the near field; clamp
  // to 1 m (the standard reference distance) so a pathological geometry
  // cannot produce gain > 1.
  const double d = distance_m < 1.0 ? 1.0 : distance_m;
  const double loss_db =
      channel::propagation_loss_db(d, carrier_hz) + coupling_loss_db;
  return array::power_gain(ula, weights, victim_angle_rad) *
         from_db(-loss_db);
}

void interferer_gain_batch_into(const array::Ula& ula, const CVec& weights,
                                std::span<const double> victim_angles_rad,
                                std::span<const double> distances_m,
                                double carrier_hz, double coupling_loss_db,
                                std::span<double> out) {
  MMR_EXPECTS(victim_angles_rad.size() == distances_m.size());
  MMR_EXPECTS(out.size() == victim_angles_rad.size());
  MMR_EXPECTS(carrier_hz > 0.0);
  MMR_EXPECTS(coupling_loss_db >= 0.0);
  // Each victim runs the SAME fused power_gain evaluation as the scalar
  // interferer_gain -- not array_factor_batch, whose separate
  // phasor-ramp + cdot loops reassociate differently under the SIMD
  // backends. That keeps batch == scalar BITWISE on every backend (the
  // network layer's byte-identity contracts fold these values into SINR).
  for (std::size_t i = 0; i < out.size(); ++i) {
    MMR_EXPECTS(distances_m[i] > 0.0);
    const double d = distances_m[i] < 1.0 ? 1.0 : distances_m[i];
    const double loss_db =
        channel::propagation_loss_db(d, carrier_hz) + coupling_loss_db;
    out[i] = array::power_gain(ula, weights, victim_angles_rad[i]) *
             from_db(-loss_db);
  }
}

}  // namespace mmr::net
