// Portable fast backend: plain C++ restructurings that compile everywhere.
//
// Two ideas carry all the speedup:
//
//  * Anchor+delta phasor evaluation. exp(-j step i) is taken from libm
//    only every kRampBlock-th element (the anchor); the elements in
//    between are anchor * exp(-j step k) with the kRampBlock delta
//    rotations precomputed once. Cuts sincos calls by kRampBlock x and
//    bounds the per-element error to one complex multiply (~2 eps),
//    independent of n.
//
//  * Raw-formula complex arithmetic with independent accumulators.
//    std::complex operator* routes through __muldc3 (Annex G NaN
//    handling) at -O2; spelling out (ar*br - ai*bi, ar*bi + ai*br) and
//    splitting reductions across 4 accumulators keeps the loop in
//    registers. Reassociation changes rounding, covered by the declared
//    dot tolerance.
//
// The transcendental kernels (box_muller, impair_csi, sinc_column) have no
// anchor to share: every element needs its own log/sincos. Plain C++ has
// no faster way to evaluate those than libm, so this table points them at
// the scalar reference.
#include <cmath>
#include <cstddef>

#include "common/angles.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/backend_kernels.h"

namespace mmr::dsp::detail {

namespace {

constexpr std::size_t kB = kRampBlock;

inline void exact_phasor(double step, std::size_t i, double* re, double* im) {
  const double ang = -step * static_cast<double>(i);
  *re = std::cos(ang);
  *im = std::sin(ang);
}

}  // namespace

void portable_phasor_ramp_interleaved(double step, std::size_t n, cplx* dst) {
  if (n < 2 * kB) {
    scalar_phasor_ramp_interleaved(step, n, dst);
    return;
  }
  const RampDeltas d = compute_ramp_deltas(step);
  double* out = reinterpret_cast<double*>(dst);
  std::size_t i = 0;
  for (; i + kB <= n; i += kB) {
    double are;
    double aim;
    exact_phasor(step, i, &are, &aim);
    for (std::size_t k = 0; k < kB; ++k) {
      out[2 * (i + k)] = are * d.re[k] - aim * d.im[k];
      out[2 * (i + k) + 1] = aim * d.re[k] + are * d.im[k];
    }
  }
  for (; i < n; ++i) {
    exact_phasor(step, i, &out[2 * i], &out[2 * i + 1]);
  }
}

cplx portable_dot_phasor_ramp(double step, const cplx* w, std::size_t n) {
  if (n < 2 * kB) return scalar_dot_phasor_ramp(step, w, n);
  const RampDeltas d = compute_ramp_deltas(step);
  const double* wp = reinterpret_cast<const double*>(w);
  double acc_re[4] = {0.0, 0.0, 0.0, 0.0};
  double acc_im[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kB <= n; i += kB) {
    double are;
    double aim;
    exact_phasor(step, i, &are, &aim);
    for (std::size_t k = 0; k < kB; ++k) {
      const double pre = are * d.re[k] - aim * d.im[k];
      const double pim = aim * d.re[k] + are * d.im[k];
      const double wr = wp[2 * (i + k)];
      const double wi = wp[2 * (i + k) + 1];
      acc_re[k & 3] += pre * wr - pim * wi;
      acc_im[k & 3] += pre * wi + pim * wr;
    }
  }
  // Deterministic combine order: ((0+1)+(2+3)), then the tail in element
  // order. Fixed per backend so repeated calls are bit-stable.
  double re = (acc_re[0] + acc_re[1]) + (acc_re[2] + acc_re[3]);
  double im = (acc_im[0] + acc_im[1]) + (acc_im[2] + acc_im[3]);
  for (; i < n; ++i) {
    double pre;
    double pim;
    exact_phasor(step, i, &pre, &pim);
    const double wr = wp[2 * i];
    const double wi = wp[2 * i + 1];
    re += pre * wr - pim * wi;
    im += pre * wi + pim * wr;
  }
  return cplx(re, im);
}

void portable_axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n) {
  const double ar = alpha.real();
  const double ai = alpha.imag();
  const double* xp = reinterpret_cast<const double*>(x);
  double* yp = reinterpret_cast<double*>(y);
  for (std::size_t i = 0; i < n; ++i) {
    const double xr = xp[2 * i];
    const double xi = xp[2 * i + 1];
    yp[2 * i] += ar * xr - ai * xi;
    yp[2 * i + 1] += ar * xi + ai * xr;
  }
}

void portable_axpy_phasor_ramp(cplx alpha, double step, cplx* y,
                               std::size_t n) {
  if (n < 2 * kB) {
    scalar_axpy_phasor_ramp(alpha, step, y, n);
    return;
  }
  const RampDeltas d = compute_ramp_deltas(step);
  const double ar = alpha.real();
  const double ai = alpha.imag();
  double* yp = reinterpret_cast<double*>(y);
  std::size_t i = 0;
  for (; i + kB <= n; i += kB) {
    double are;
    double aim;
    exact_phasor(step, i, &are, &aim);
    for (std::size_t k = 0; k < kB; ++k) {
      const double pre = are * d.re[k] - aim * d.im[k];
      const double pim = aim * d.re[k] + are * d.im[k];
      yp[2 * (i + k)] += ar * pre - ai * pim;
      yp[2 * (i + k) + 1] += ar * pim + ai * pre;
    }
  }
  for (; i < n; ++i) {
    double pre;
    double pim;
    exact_phasor(step, i, &pre, &pim);
    yp[2 * i] += ar * pre - ai * pim;
    yp[2 * i + 1] += ar * pim + ai * pre;
  }
}

void portable_delay_phasors(const FreqGrid& grid, double delay_s, cplx* ph) {
  if (!delay_ramp_applies(grid)) {
    scalar_delay_phasors(grid, delay_s, ph);
    return;
  }
  // Anchors use the ACTUAL freqs[] value with the scalar association
  // order, so anchor elements match the reference to one complex
  // multiply; interior elements additionally absorb the (tiny, checked)
  // deviation of the grid from perfectly affine.
  const double* freqs = grid.freqs;
  const std::size_t n = grid.n;
  double dre[kB];
  double dim[kB];
  for (std::size_t k = 0; k < kB; ++k) {
    const double ang =
        -2.0 * kPi * (grid.df * static_cast<double>(k)) * delay_s;
    dre[k] = std::cos(ang);
    dim[k] = std::sin(ang);
  }
  double* pp = reinterpret_cast<double*>(ph);
  std::size_t i = 0;
  for (; i + kB <= n; i += kB) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    const double are = std::cos(ang);
    const double aim = std::sin(ang);
    for (std::size_t k = 0; k < kB; ++k) {
      pp[2 * (i + k)] = are * dre[k] - aim * dim[k];
      pp[2 * (i + k) + 1] = aim * dre[k] + are * dim[k];
    }
  }
  for (; i < n; ++i) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    pp[2 * i] = std::cos(ang);
    pp[2 * i + 1] = std::sin(ang);
  }
}

// The ramp path's sum is the raw-formula complex multiply-add of
// portable_axpy for every element, anchors and tail alike.
void portable_axpy_delay_phasors(const FreqGrid& grid, cplx alpha,
                                 const cplx* ph, cplx* dst) {
  if (!delay_ramp_applies(grid)) {
    scalar_axpy(alpha, ph, dst, grid.n);
    return;
  }
  portable_axpy(alpha, ph, dst, grid.n);
}

const KernelTable* portable_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.phasor_ramp_interleaved = &portable_phasor_ramp_interleaved;
    t.dot_phasor_ramp = &portable_dot_phasor_ramp;
    t.axpy = &portable_axpy;
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
