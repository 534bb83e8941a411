// Complex microkernels: phasor ramps (steering-vector innards), the fused
// phasor inner product (array factors), complex axpy, the split delay
// phasors of CSI synthesis, Box-Muller and the probe impairment -- the
// primitives every beamforming and channel hot loop reduces to. Each one
// is an entry of the backend dispatch table (dsp/backend.h).
//
// Bit-compatibility contract: on the SCALAR backend every kernel performs
// the SAME per-element floating-point operations in the SAME order as the
// scalar loops it replaces (array/geometry.cpp, array/pattern.cpp,
// channel/wideband.cpp as of PR-1). Manual unrolling never reassociates
// the accumulation, so a kernel result is reproducible against a naive
// reference to <= 1 ULP (empirically bit-identical; enforced by
// tests/dsp/kernel_differential_test over >= 1e4 randomized cases). This
// is what lets the PatternCache hand one worker's beam weights to every
// other sweep worker without perturbing the golden figures.
//
// Since PR-6 every kernel dispatches through a runtime-selected
// backend table (dsp/backend.h): the scalar reference keeps the contract
// above verbatim, while the portable/AVX2/NEON backends may reassociate
// sums and evaluate phasors by anchor+rotation within a declared,
// test-enforced tolerance (dsp::tolerances()). Goldens and the pinned
// bench stdout hashes always run against the scalar reference.
//
// Edge/aliasing contract (all backends, enforced by
// tests/dsp/backend_test.cpp):
//  * n == 0 is a no-op (reductions return 0+0j); n == 1 is exact libm.
//  * axpy allows x == y (full aliasing: y[i] += alpha*y[i] element-wise).
//    PARTIALLY overlapping x/y ranges are undefined across all backends.
//  * phasor_ramp/axpy_phasor_ramp/delay_phasors/axpy_delay_phasors
//    destinations must not overlap their inputs (freqs or ph vs dst).
//
// Delay phasors are split in two (paper Eq. 26): delay_phasors writes a
// path's pre-amplitude ramp e^{-j2 pi f_k tau}, which depends only on the
// path's delay and the subcarrier grid, and axpy_delay_phasors adds
// alpha * ramp into a CSI row. A tick's path delays are fixed while its
// beams change, so sim::LinkWorld fills one ramp per path per tick and
// every CSI synthesis of the tick is only the sum. On every backend the
// pair performs exactly the operations of the fused accumulate
// dst[k] += alpha * e^{j ang_k} on that backend (whose ramp is formed
// before the alpha multiply), so caching the ramp changes no bit.
#pragma once

#include <cstddef>

#include "common/rng.h"
#include "common/types.h"

namespace mmr::dsp {

/// Fill dst[i] = exp(-j step i) for i in [0, n) (interleaved complex).
void phasor_ramp(double step, std::size_t n, cplx* dst);

/// Fused array factor: sum_i exp(-j step i) * w[i], without materializing
/// the phasor ramp. Sequential single-accumulator sum (unrolled by 4, no
/// reassociation) — matches `steering_vector` + sequential dot bit for bit.
cplx dot_phasor_ramp(double step, const cplx* w, std::size_t n);

/// y[i] += alpha * x[i] for i in [0, n).
void axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n);

/// Fused steering accumulate: y[i] += alpha * exp(-j step i). Replaces
/// "build steering vector, then scale-add" without the temporary.
void axpy_phasor_ramp(cplx alpha, double step, cplx* y, std::size_t n);

/// A subcarrier grid with its affine fit, made once per grid by
/// make_freq_grid: the delay-phasor fast paths need freqs[k] ~= freqs[0] +
/// k df, and checking that costs a pass over the grid.
struct FreqGrid {
  const double* freqs = nullptr;  ///< n frequencies [Hz]; not owned
  std::size_t n = 0;
  double df = 0.0;
  /// freqs[k] is within 1e-9 of the grid span of freqs[0] + k df. Grids
  /// that are not take the scalar loop on every backend.
  bool affine = false;
};

/// View `freqs[0..n)` as a FreqGrid (one pass to fit it). The grid must
/// outlive the view.
FreqGrid make_freq_grid(const double* freqs, std::size_t n);

/// Per-subcarrier delay phasors (paper Eq. 26 inner loop, before the path
/// amplitude): ph[k] = exp(j * ((-2 pi) * freqs[k]) * delay_s) for k in
/// [0, grid.n). The phase is evaluated as ((-2 pi) * f) * delay -- the
/// association order of the original scalar loop.
void delay_phasors(const FreqGrid& grid, double delay_s, cplx* ph);

/// dst[k] += alpha * ph[k] for k in [0, grid.n), where `ph` came from
/// delay_phasors on the same grid and backend: the pair equals the fused
/// per-path accumulate bit for bit.
void axpy_delay_phasors(const FreqGrid& grid, cplx alpha, const cplx* ph,
                        cplx* dst);

/// Box-Muller step of Rng::normal over `pairs` uniform pairs:
/// (u1, u2) = (uniforms[2i], uniforms[2i+1]) gives
/// normals[2i] = r cos(2 pi u2), normals[2i+1] = r sin(2 pi u2) with
/// r = sqrt(-2 ln u1), u1 <= 0 read as 2^-53. `normals` may equal
/// `uniforms` (in place); any other overlap is undefined.
void box_muller(const double* uniforms, std::size_t pairs, double* normals);

/// n sequential rng.normal() draws into out[0..n) through the active
/// backend's box_muller (Rng::fill_normal).
void fill_normal(Rng& rng, double* out, std::size_t n);

/// n sequential rng.complex_normal(variance) draws into out[0..n)
/// (Rng::fill_complex_normal).
void fill_complex_normal(Rng& rng, cplx* out, std::size_t n, double variance);

/// Probe impairment of phy::ChannelEstimator (AWGN, then the CFO/SFO
/// rotation): out[k] = (truth[k] + noise[k]) * exp(j (phase0 + slope k)).
/// `out` may equal `truth` or `noise`; any other overlap is undefined.
void impair_csi(const cplx* truth, const cplx* noise, double phase0,
                double slope, std::size_t n, cplx* out);

}  // namespace mmr::dsp
