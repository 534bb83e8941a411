// Antenna array geometry and steering vectors.
//
// The paper's testbed is an 8x8 uniform planar array beamforming only in
// azimuth (all elevation weights equal, Section 5.1), which is electrically
// equivalent to an 8-element ULA with 9 dB extra fixed gain. We model the
// general N-element half-wavelength ULA and expose element count as the
// knob the paper sweeps (8..64).
//
// Sign conventions follow the paper: the channel along departure angle phi
// contributes per-element phases  h[n] ~ exp(-j 2 pi (d/lambda) n sin phi)
// (paper Eq. 5, zero-indexed here), so the steering vector is
//   a(phi)[n] = exp(-j 2 pi (d/lambda) n sin phi)
// and the matched single-beam weight is conj(a(phi)) / sqrt(N) (Eq. 6).
#pragma once

#include <cmath>
#include <cstddef>

#include "common/angles.h"
#include "common/types.h"

namespace mmr::array {

struct Ula {
  std::size_t num_elements = 8;
  /// Element spacing in carrier wavelengths (paper: d = lambda/2).
  double spacing_wavelengths = 0.5;
};

/// Electrical phase step between adjacent elements toward phi:
/// 2 pi (d/lambda) sin(phi). Element n's steering phase is -step * n.
/// Inline so steering vectors, weights and array factors evaluate the
/// identical expression (bit-compatibility of the dsp::kernels layer
/// rests on it).
inline double steering_phase_step(const Ula& ula, double phi_rad) {
  return 2.0 * kPi * ula.spacing_wavelengths * std::sin(phi_rad);
}

/// Steering vector a(phi) at the carrier frequency; phi is the azimuth
/// departure angle in radians, measured from broadside.
CVec steering_vector(const Ula& ula, double phi_rad);

/// Frequency-aware steering vector for wideband (beam squint) analysis.
/// `freq_offset_hz` is the subcarrier offset from the carrier and
/// `carrier_hz` the carrier itself; the element phase scales with
/// (carrier + offset) / carrier.
CVec steering_vector_wideband(const Ula& ula, double phi_rad,
                              double carrier_hz, double freq_offset_hz);

/// Matched single-beam weights for direction phi (unit norm, paper Eq. 6).
CVec single_beam_weights(const Ula& ula, double phi_rad);

}  // namespace mmr::array
