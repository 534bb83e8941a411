#include "array/pattern.h"

#include <cmath>

#include "common/angles.h"
#include "common/error.h"
#include "common/units.h"
#include "dsp/kernels.h"

namespace mmr::array {

cplx array_factor(const Ula& ula, const CVec& weights, double phi_rad) {
  MMR_EXPECTS(weights.size() == ula.num_elements);
  // Fused phasor dot: no steering-vector temporary; same op order as the
  // materialized path (see dsp/kernels.h bit-compatibility contract).
  return dsp::dot_phasor_ramp(steering_phase_step(ula, phi_rad),
                              weights.data(), weights.size());
}

double power_gain(const Ula& ula, const CVec& weights, double phi_rad) {
  return std::norm(array_factor(ula, weights, phi_rad));
}

double power_gain_db(const Ula& ula, const CVec& weights, double phi_rad) {
  return to_db(power_gain(ula, weights, phi_rad));
}

double ula_relative_gain(std::size_t num_elements, double spacing_wavelengths,
                         double offset_rad) {
  MMR_EXPECTS(num_elements >= 1);
  const auto n = static_cast<double>(num_elements);
  // Electrical angle between adjacent elements for a target offset_rad from
  // beam center (small-angle form of sin(phi0+off)-sin(phi0) ~ off works in
  // the main lobe; we use the exact broadside form which is what the paper's
  // Eq. 20 states).
  const double psi = 2.0 * kPi * spacing_wavelengths * std::sin(offset_rad);
  if (std::abs(psi) < 1e-12) return 1.0;
  const double num = std::sin(n * psi / 2.0);
  const double den = n * std::sin(psi / 2.0);
  const double af = num / den;
  return af * af;
}

double ula_relative_gain_db(std::size_t num_elements,
                            double spacing_wavelengths, double offset_rad) {
  return to_db(ula_relative_gain(num_elements, spacing_wavelengths, offset_rad));
}

double half_power_beamwidth(std::size_t num_elements,
                            double spacing_wavelengths) {
  MMR_EXPECTS(num_elements >= 2);
  // Bisect for the -3 dB point on one side of the main lobe.
  double lo = 0.0;
  double hi = kPi / 2.0;
  // Shrink hi until inside the main lobe (gain still above -3 dB somewhere
  // before the first null at psi = 2 pi / N).
  const double first_null =
      std::asin(std::min(1.0, 1.0 / (spacing_wavelengths *
                                     static_cast<double>(num_elements))));
  hi = first_null;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (ula_relative_gain(num_elements, spacing_wavelengths, mid) > 0.5) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 2.0 * lo;  // full width
}

}  // namespace mmr::array
