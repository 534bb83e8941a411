// Band-limited (sinc) pulse models. The super-resolution algorithm
// (paper Section 4.3, Eq. 22) fits attenuations of sinc pulses whose delays
// are known up to a small search window; these helpers build the sampled
// pulse dictionary.
#pragma once

#include <cstddef>

#include "common/types.h"

namespace mmr::dsp {

/// Normalized sinc: sin(pi x) / (pi x), sinc(0) = 1.
double sinc(double x);

/// Sampled band-limited pulse: tap n of a pulse with delay tau [s] observed
/// by a receiver with bandwidth B [Hz] sampling at period ts [s]
/// (paper Eq. 22: sinc(B (n ts - tau))).
double sampled_sinc_tap(std::size_t n, double ts, double bandwidth, double tau);

/// Taps 0..n-1 of that pulse into out[0..n): the super-resolution
/// dictionary column. Dispatched through the kernel backend table
/// (dsp/backend.h); the scalar backend is exactly sampled_sinc_tap.
void sinc_column(double ts, double bandwidth, double tau, std::size_t n,
                 double* out);

/// Full sampled pulse of `num_taps` taps for delay tau (sinc_column).
RVec sampled_sinc(std::size_t num_taps, double ts, double bandwidth, double tau);

/// Band-limited interpolation of a sampled CIR at fractional delay tau:
/// sum_n x[n] sinc(B(tau - n ts)). Used to read a CIR "between taps".
cplx sinc_interpolate(const CVec& taps, double ts, double bandwidth, double tau);

}  // namespace mmr::dsp
