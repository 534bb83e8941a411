// Beam pattern evaluation: array factor, power gain over angle, beamwidth,
// and the closed-form ULA pattern the tracking algorithm inverts (paper
// Eq. 20).
#pragma once

#include <cstddef>

#include "array/geometry.h"
#include "common/types.h"

namespace mmr::array {

/// Complex array factor along departure angle phi: a(phi)^T w.
/// For matched unit-norm weights this has magnitude sqrt(N).
cplx array_factor(const Ula& ula, const CVec& weights, double phi_rad);

/// Transmit power gain along phi: |a(phi)^T w|^2 (linear; N at boresight
/// for a matched single beam).
double power_gain(const Ula& ula, const CVec& weights, double phi_rad);

/// Power gain in dB.
double power_gain_db(const Ula& ula, const CVec& weights, double phi_rad);

/// Closed-form normalized ULA pattern used by the tracker's inverse
/// model (paper Eq. 20): relative POWER gain (<= 1, =1 at offset 0) of a
/// matched beam when the target sits `offset_rad` away from the beam
/// center. Valid in the main lobe.
double ula_relative_gain(std::size_t num_elements, double spacing_wavelengths,
                         double offset_rad);

/// Same, in dB.
double ula_relative_gain_db(std::size_t num_elements,
                            double spacing_wavelengths, double offset_rad);

/// Half-power (-3 dB) beamwidth of a matched N-element beam [rad],
/// found numerically from the closed-form pattern.
double half_power_beamwidth(std::size_t num_elements,
                            double spacing_wavelengths);

}  // namespace mmr::array
