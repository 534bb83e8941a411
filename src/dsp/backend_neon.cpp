// NEON backend (aarch64, where Advanced SIMD is baseline ISA -- no
// runtime CPU check needed beyond the architecture itself). One
// float64x2_t holds a single complex [re, im]; axpy uses the same
// raw-formula structure as the portable backend, and the phasor/delay kernels -- whose cost is libm sincos,
// not arithmetic -- reuse the portable anchor+delta implementations
// directly, so the declared NEON tolerances equal the portable ones. The
// transcendental kernels (box_muller, impair_csi, sinc_column) point at
// the scalar reference, as in the portable table.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>

#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/backend_kernels.h"

namespace mmr::dsp::detail {

void neon_axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n) {
  const double* xp = reinterpret_cast<const double*>(x);
  double* yp = reinterpret_cast<double*>(y);
  const float64x2_t ar = vdupq_n_f64(alpha.real());
  const float64x2_t ai = vdupq_n_f64(alpha.imag());
  const float64x2_t sign = {-1.0, 1.0};
  for (std::size_t i = 0; i < n; ++i) {
    const float64x2_t xv = vld1q_f64(xp + 2 * i);
    const float64x2_t xswap = vextq_f64(xv, xv, 1);
    const float64x2_t prod =
        vfmaq_f64(vmulq_f64(vmulq_f64(xswap, ai), sign), xv, ar);
    vst1q_f64(yp + 2 * i, vaddq_f64(vld1q_f64(yp + 2 * i), prod));
  }
}

const KernelTable* neon_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.phasor_ramp_interleaved = &portable_phasor_ramp_interleaved;
    t.dot_phasor_ramp = &portable_dot_phasor_ramp;
    t.axpy = &neon_axpy;
    t.axpy_phasor_ramp = &portable_axpy_phasor_ramp;
    t.delay_phasors = &portable_delay_phasors;
    t.axpy_delay_phasors = &portable_axpy_delay_phasors;
    t.box_muller = &scalar_box_muller;
    t.impair_csi = &scalar_impair_csi;
    t.sinc_column = &scalar_sinc_column;
    return t;
  }();
  return &table;
}

}  // namespace mmr::dsp::detail

#else  // !aarch64

#include "dsp/backend.h"

namespace mmr::dsp::detail {
const KernelTable* neon_table() { return nullptr; }
}  // namespace mmr::dsp::detail

#endif
