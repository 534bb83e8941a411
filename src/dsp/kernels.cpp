#include "dsp/kernels.h"

#include "dsp/backend.h"
#include "dsp/backend_kernels.h"

namespace mmr::dsp {

// Every kernel below routes through the active backend's
// dispatch table (dsp/backend.h). The scalar reference implementations
// live in backend_scalar.cpp, bit-for-bit the loops that used to sit
// here.

void phasor_ramp(double step, std::size_t n, cplx* dst) {
  active_table().phasor_ramp_interleaved(step, n, dst);
}

cplx dot_phasor_ramp(double step, const cplx* w, std::size_t n) {
  return active_table().dot_phasor_ramp(step, w, n);
}

void axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n) {
  active_table().axpy(alpha, x, y, n);
}

void axpy_phasor_ramp(cplx alpha, double step, cplx* y, std::size_t n) {
  active_table().axpy_phasor_ramp(alpha, step, y, n);
}

FreqGrid make_freq_grid(const double* freqs, std::size_t n) {
  FreqGrid grid;
  grid.freqs = freqs;
  grid.n = n;
  grid.affine = detail::affine_freqs(freqs, n, &grid.df);
  return grid;
}

void delay_phasors(const FreqGrid& grid, double delay_s, cplx* ph) {
  active_table().delay_phasors(grid, delay_s, ph);
}

void axpy_delay_phasors(const FreqGrid& grid, cplx alpha, const cplx* ph,
                        cplx* dst) {
  active_table().axpy_delay_phasors(grid, alpha, ph, dst);
}

void box_muller(const double* uniforms, std::size_t pairs, double* normals) {
  active_table().box_muller(uniforms, pairs, normals);
}

void fill_normal(Rng& rng, double* out, std::size_t n) {
  rng.fill_normal(out, n, active_table().box_muller);
}

void fill_complex_normal(Rng& rng, cplx* out, std::size_t n, double variance) {
  rng.fill_complex_normal(out, n, variance, active_table().box_muller);
}

void impair_csi(const cplx* truth, const cplx* noise, double phase0,
                double slope, std::size_t n, cplx* out) {
  active_table().impair_csi(truth, noise, phase0, slope, n, out);
}

}  // namespace mmr::dsp
