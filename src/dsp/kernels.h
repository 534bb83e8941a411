// Batched complex microkernels: phasor ramps (steering-vector innards),
// fused phasor inner products (array factors), and complex axpy — the
// primitives every beamforming hot loop reduces to.
//
// Bit-compatibility contract: on the SCALAR backend every kernel performs
// the SAME per-element floating-point operations in the SAME order as the
// scalar loops it replaces (array/geometry.cpp, array/pattern.cpp,
// channel/wideband.cpp as of PR-1). Manual unrolling never reassociates
// the accumulation, so a kernel result is reproducible against a naive
// reference to <= 1 ULP (empirically bit-identical; enforced by
// tests/dsp/kernel_differential_test over >= 1e4 randomized cases). This
// is what lets the PatternCache hand one worker's result to every other
// sweep worker without perturbing the golden figures.
//
// Since PR-6 every batched kernel dispatches through a runtime-selected
// backend table (dsp/backend.h): the scalar reference keeps the contract
// above verbatim, while the portable/AVX2/NEON backends may reassociate
// sums and evaluate phasors by anchor+rotation within a declared,
// test-enforced tolerance (dsp::tolerances()). Goldens and journal
// byte-identity always run against the scalar reference.
//
// Edge/aliasing contract (all backends, enforced by
// tests/dsp/backend_test.cpp):
//  * n == 0 is a no-op (reductions return 0+0j); n == 1 is exact libm.
//  * axpy allows x == y (full aliasing: y[i] += alpha*y[i] element-wise).
//    PARTIALLY overlapping x/y ranges are undefined across all backends.
//  * phasor_ramp/axpy_phasor_ramp/accumulate_delay_phasors destinations
//    must not overlap their inputs (freqs vs dst).
#pragma once

#include <cstddef>

#include "common/rng.h"
#include "common/types.h"

namespace mmr::dsp {

/// SoA batch of `rows` complex vectors of length `cols` in ONE contiguous
/// allocation. Row r's layout is [re x cols][im x cols], so a row's two
/// planes are adjacent in memory and a row can be processed without
/// touching any other row's cache lines.
class CplxBatch {
 public:
  CplxBatch() = default;
  CplxBatch(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(2 * rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double* row_re(std::size_t r) { return data_.data() + 2 * r * cols_; }
  double* row_im(std::size_t r) { return row_re(r) + cols_; }
  const double* row_re(std::size_t r) const {
    return data_.data() + 2 * r * cols_;
  }
  const double* row_im(std::size_t r) const { return row_re(r) + cols_; }

  cplx at(std::size_t r, std::size_t c) const {
    return cplx(row_re(r)[c], row_im(r)[c]);
  }

  /// Materialize row r as an interleaved complex vector. Bounds-checked
  /// (throws std::logic_error on r >= rows); the pointer accessors above
  /// stay unchecked -- they are the hot path.
  CVec row(std::size_t r) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  RVec data_;
};

/// Unit phasor exp(-j step i): the per-element op of a steering vector
/// with electrical phase step `step` between adjacent elements.
cplx unit_phasor(double step, std::size_t i);

/// Fill dst[i] = exp(-j step i) for i in [0, n) (interleaved complex).
void phasor_ramp(double step, std::size_t n, cplx* dst);

/// SoA variant: dst_re[i] = cos(-step i), dst_im[i] = sin(-step i).
void phasor_ramp(double step, std::size_t n, double* dst_re, double* dst_im);

/// Fused array factor: sum_i exp(-j step i) * w[i], without materializing
/// the phasor ramp. Sequential single-accumulator sum (unrolled by 4, no
/// reassociation) — matches `steering_vector` + sequential dot bit for bit.
cplx dot_phasor_ramp(double step, const cplx* w, std::size_t n);

/// Unconjugated complex inner product sum_i a[i] * b[i], sequential
/// single-accumulator order (unrolled by 4, no reassociation).
cplx cdot(const cplx* a, const cplx* b, std::size_t n);

/// y[i] += alpha * x[i] for i in [0, n).
void axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n);

/// Fused steering accumulate: y[i] += alpha * exp(-j step i). Replaces
/// "build steering vector, then scale-add" without the temporary.
void axpy_phasor_ramp(cplx alpha, double step, cplx* y, std::size_t n);

/// Per-subcarrier delay rotation accumulate (paper Eq. 26 inner loop):
/// dst[k] += alpha * exp(j * ((-2 pi) * freqs[k]) * delay_s). The phase is
/// evaluated as ((-2 pi) * f) * delay — the exact association order of the
/// scalar loop it replaces in channel/wideband.cpp.
void accumulate_delay_phasors(cplx alpha, const double* freqs, double delay_s,
                              cplx* dst, std::size_t n);

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
