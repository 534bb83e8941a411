// Scalar reference backend: the PR-2 kernel loops, verbatim. This is the
// golden path -- figure goldens, the bench stdout hashes and every %.17g
// pin in the test tree assume these exact operations in this exact order.
// DO NOT restructure these loops; put fast variants in another backend TU.
#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/angles.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/backend_kernels.h"
#include "dsp/sinc.h"

namespace mmr::dsp::detail {

namespace {

inline cplx ref_phasor(double step, std::size_t i) {
  const double ang = -step * static_cast<double>(i);
  return cplx(std::cos(ang), std::sin(ang));
}

}  // namespace

void scalar_phasor_ramp_interleaved(double step, std::size_t n, cplx* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = ref_phasor(step, i);
}

cplx scalar_dot_phasor_ramp(double step, const cplx* w, std::size_t n) {
  cplx acc{};
  std::size_t i = 0;
  // Unrolled by 4 into ONE accumulator: the additions stay in element
  // order, so the sum rounds exactly like the naive reference loop.
  for (; i + 4 <= n; i += 4) {
    acc += ref_phasor(step, i) * w[i];
    acc += ref_phasor(step, i + 1) * w[i + 1];
    acc += ref_phasor(step, i + 2) * w[i + 2];
    acc += ref_phasor(step, i + 3) * w[i + 3];
  }
  for (; i < n; ++i) acc += ref_phasor(step, i) * w[i];
  return acc;
}

void scalar_axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scalar_axpy_phasor_ramp(cplx alpha, double step, cplx* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * ref_phasor(step, i);
}

// The per-path loop dst[k] += alpha * cplx(cos(ang), sin(ang)), split at
// the multiply: the ramp here, the sum in scalar_axpy.
void scalar_delay_phasors(const FreqGrid& grid, double delay_s, cplx* ph) {
  for (std::size_t k = 0; k < grid.n; ++k) {
    const double ang = -2.0 * kPi * grid.freqs[k] * delay_s;
    ph[k] = cplx(std::cos(ang), std::sin(ang));
  }
}

void scalar_axpy_delay_phasors(const FreqGrid& grid, cplx alpha,
                               const cplx* ph, cplx* dst) {
  scalar_axpy(alpha, ph, dst, grid.n);
}

// Rng::normal's Box-Muller step, one uniform pair at a time. u2 is read
// before either output is written, so normals may equal uniforms.
void scalar_box_muller(const double* uniforms, std::size_t pairs,
                       double* normals) {
  for (std::size_t i = 0; i < pairs; ++i) {
    double u1 = uniforms[2 * i];
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = uniforms[2 * i + 1];
    const double r = std::sqrt(-2.0 * std::log(u1));
    normals[2 * i] = r * std::cos(2.0 * kPi * u2);
    normals[2 * i + 1] = r * std::sin(2.0 * kPi * u2);
  }
}

// The phy::ChannelEstimator probe loop: AWGN, then the CFO/SFO rotation.
cplx scalar_impair_csi_at(const cplx* truth, const cplx* noise, double phase0,
                          double slope, std::size_t k) {
  const double phase = phase0 + slope * static_cast<double>(k);
  const cplx rot(std::cos(phase), std::sin(phase));
  return (truth[k] + noise[k]) * rot;
}

void scalar_impair_csi(const cplx* truth, const cplx* noise, double phase0,
                       double slope, std::size_t n, cplx* out) {
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = scalar_impair_csi_at(truth, noise, phase0, slope, k);
  }
}

void scalar_sinc_column(double ts, double bandwidth, double tau,
                        std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = sampled_sinc_tap(i, ts, bandwidth, tau);
  }
}

RampDeltas compute_ramp_deltas(double step) {
  RampDeltas d;
  for (std::size_t k = 0; k < kRampBlock; ++k) {
    const double ang = -step * static_cast<double>(k);
    d.re[k] = std::cos(ang);
    d.im[k] = std::sin(ang);
  }
  return d;
}

bool affine_freqs(const double* freqs, std::size_t n, double* df) {
  if (n < 2) {
    *df = 0.0;
    return true;
  }
  const double first = freqs[0];
  const double step = (freqs[n - 1] - first) / static_cast<double>(n - 1);
  const double span = std::abs(freqs[n - 1] - first);
  const double tol =
      1e-9 * std::max({span, std::abs(first), std::abs(freqs[n - 1])});
  for (std::size_t k = 1; k + 1 < n; ++k) {
    const double predicted = first + static_cast<double>(k) * step;
    if (std::abs(freqs[k] - predicted) > tol) return false;
  }
  *df = step;
  return true;
}

}  // namespace mmr::dsp::detail

namespace mmr::dsp::detail {

const KernelTable* scalar_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.phasor_ramp_interleaved = &scalar_phasor_ramp_interleaved;
    t.dot_phasor_ramp = &scalar_dot_phasor_ramp;
    t.axpy = &scalar_axpy;
    t.axpy_phasor_ramp = &scalar_axpy_phasor_ramp;
    t.delay_phasors = &scalar_delay_phasors;
    t.axpy_delay_phasors = &scalar_axpy_delay_phasors;
    t.box_muller = &scalar_box_muller;
    t.impair_csi = &scalar_impair_csi;
    t.sinc_column = &scalar_sinc_column;
    return t;
  }();
  return &table;
}

}  // namespace mmr::dsp::detail
