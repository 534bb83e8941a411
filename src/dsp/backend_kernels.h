// Internal declarations shared by the backend TUs (backend_*.cpp) and the
// dispatcher (backend.cpp). Not part of the public dsp API -- include
// dsp/backend.h instead.
//
// Naming: <backend>_<kernel>. Every backend must match the semantics of
// the scalar reference within its declared tolerance (dsp/backend.h);
// scalar_* IS the reference and is shared freely by other tables for
// kernels they do not accelerate.
#pragma once

#include <cstddef>

#include "common/types.h"

namespace mmr::dsp::detail {

// ---------------------------------------------------------------------------
// Scalar reference (backend_scalar.cpp): bit-exact PR-2 loops.
// ---------------------------------------------------------------------------
void scalar_phasor_ramp_soa(double step, std::size_t n, double* dst_re,
                            double* dst_im);
void scalar_phasor_ramp_interleaved(double step, std::size_t n, cplx* dst);
cplx scalar_cdot(const cplx* a, const cplx* b, std::size_t n);
cplx scalar_dot_phasor_ramp(double step, const cplx* w, std::size_t n);
void scalar_axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n);
void scalar_axpy_phasor_ramp(cplx alpha, double step, cplx* y, std::size_t n);
void scalar_accumulate_delay_phasors(cplx alpha, const double* freqs,
                                     double delay_s, cplx* dst, std::size_t n);
void scalar_box_muller(const double* uniforms, std::size_t pairs,
                       double* normals);
void scalar_impair_csi(const cplx* truth, const cplx* noise, double phase0,
                       double slope, std::size_t n, cplx* out);
/// Element k of scalar_impair_csi (the fast backends' fallback for
/// elements outside their range).
cplx scalar_impair_csi_at(const cplx* truth, const cplx* noise, double phase0,
                          double slope, std::size_t k);
void scalar_sinc_column(double ts, double bandwidth, double tau,
                        std::size_t n, double* out);

// ---------------------------------------------------------------------------
// Portable FMA-restructured kernels (backend_portable.cpp): plain C++,
// compiled everywhere. Reassociated accumulations (4 independent
// accumulators) and anchor+delta phasor evaluation.
// ---------------------------------------------------------------------------
void portable_phasor_ramp_soa(double step, std::size_t n, double* dst_re,
                              double* dst_im);
void portable_phasor_ramp_interleaved(double step, std::size_t n, cplx* dst);
cplx portable_cdot(const cplx* a, const cplx* b, std::size_t n);
cplx portable_dot_phasor_ramp(double step, const cplx* w, std::size_t n);
void portable_axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n);
void portable_axpy_phasor_ramp(cplx alpha, double step, cplx* y,
                               std::size_t n);
void portable_accumulate_delay_phasors(cplx alpha, const double* freqs,
                                       double delay_s, cplx* dst,
                                       std::size_t n);

// ---------------------------------------------------------------------------
// AVX2 transcendental kernels (backend_avx2_math.cpp, x86-64 only): 4-wide
// polynomial log/sin/cos in place of libm.
// ---------------------------------------------------------------------------
void avx2_box_muller(const double* uniforms, std::size_t pairs,
                     double* normals);
void avx2_impair_csi(const cplx* truth, const cplx* noise, double phase0,
                     double slope, std::size_t n, cplx* out);
void avx2_sinc_column(double ts, double bandwidth, double tau, std::size_t n,
                      double* out);

// ---------------------------------------------------------------------------
// Shared building blocks.
// ---------------------------------------------------------------------------

/// Anchor block length of the anchor+delta phasor evaluation: phasors are
/// taken exact (libm sincos) every kRampBlock elements and filled in
/// between by one complex rotation each, bounding the per-element error
/// to ~2 rounding steps regardless of n.
inline constexpr std::size_t kRampBlock = 8;

/// exp(-j step k) for k in [0, kRampBlock), evaluated with libm (exact
/// reference values; delta[0] == (1, 0) exactly).
struct RampDeltas {
  double re[kRampBlock];
  double im[kRampBlock];
};
RampDeltas compute_ramp_deltas(double step);

/// True when freqs[] is an affine grid freqs[k] ~= f0 + k*df (relative
/// deviation <= 1e-9 of the grid span). Production subcarrier grids are;
/// arbitrary inputs fall back to the scalar delay-phasor loop.
bool affine_freqs(const double* freqs, std::size_t n, double* f0, double* df);

}  // namespace mmr::dsp::detail
