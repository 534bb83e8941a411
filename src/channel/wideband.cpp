#include "channel/wideband.h"

#include <algorithm>
#include <cmath>

#include "array/pattern.h"
#include "common/angles.h"
#include "common/error.h"
#include "dsp/kernels.h"
#include "dsp/sinc.h"

namespace mmr::channel {
namespace {

double min_delay(const std::vector<Path>& paths) {
  MMR_EXPECTS(!paths.empty());
  double d = paths.front().delay_s;
  for (const Path& p : paths) d = std::min(d, p.delay_s);
  return d;
}

RVec freq_grid(const WidebandSpec& spec) {
  RVec freqs(spec.num_subcarriers);
  fill_freq_grid(spec, freqs.data());
  return freqs;
}

}  // namespace

void fill_freq_grid(const WidebandSpec& spec, double* freqs) {
  for (std::size_t k = 0; k < spec.num_subcarriers; ++k) {
    freqs[k] = spec.freq_offset(k);
  }
}

cplx RxFrontend::response(double aoa_rad) const {
  if (!directional) return cplx{omni_gain, 0.0};
  return array::array_factor(ula, weights, aoa_rad);
}

RxFrontend RxFrontend::omni(double gain) {
  RxFrontend rx;
  rx.directional = false;
  rx.omni_gain = gain;
  return rx;
}

RxFrontend RxFrontend::beam(const array::Ula& ula, const CVec& weights) {
  MMR_EXPECTS(weights.size() == ula.num_elements);
  RxFrontend rx;
  rx.directional = true;
  rx.ula = ula;
  rx.weights = weights;
  return rx;
}

cplx path_amplitude(const Path& path, const array::Ula& tx_ula,
                    const CVec& tx_weights, const RxFrontend& rx) {
  return path.effective_gain() *
         array::array_factor(tx_ula, tx_weights, path.aod_rad) *
         rx.response(path.aoa_rad);
}

CVec effective_csi(const std::vector<Path>& paths, const array::Ula& tx_ula,
                   const CVec& tx_weights, const WidebandSpec& spec,
                   const RxFrontend& rx) {
  CVec csi(spec.num_subcarriers);
  // Subcarrier grid computed once, shared across paths; the per-path delay
  // rotation is the batched kernel (same op order as the scalar loop).
  const RVec freqs = freq_grid(spec);
  effective_csi_into(paths, tx_ula, tx_weights, spec, rx, freqs.data(),
                     csi.data());
  return csi;
}

void effective_csi_into(const std::vector<Path>& paths,
                        const array::Ula& tx_ula, const CVec& tx_weights,
                        const WidebandSpec& spec, const RxFrontend& rx,
                        const double* freqs, cplx* csi) {
  MMR_EXPECTS(!paths.empty());
  const double t0 = min_delay(paths);
  for (std::size_t k = 0; k < spec.num_subcarriers; ++k) csi[k] = cplx{};
  for (const Path& p : paths) {
    const cplx alpha = path_amplitude(p, tx_ula, tx_weights, rx);
    dsp::accumulate_delay_phasors(alpha, freqs, p.delay_s - t0, csi,
                                  spec.num_subcarriers);
  }
}

CVec effective_csi_freq_weights(
    const std::vector<Path>& paths, const array::Ula& tx_ula,
    const std::function<CVec(double)>& weights_at, const WidebandSpec& spec,
    const RxFrontend& rx) {
  MMR_EXPECTS(!paths.empty());
  const double t0 = min_delay(paths);
  CVec csi(spec.num_subcarriers, cplx{});
  const RVec freqs = freq_grid(spec);
  for (std::size_t k = 0; k < spec.num_subcarriers; ++k) {
    const double f = freqs[k];
    const CVec w = weights_at(f);
    cplx acc{};
    for (const Path& p : paths) {
      const cplx alpha = p.effective_gain() *
                         array::array_factor(tx_ula, w, p.aod_rad) *
                         rx.response(p.aoa_rad);
      const double ang = -2.0 * kPi * f * (p.delay_s - t0);
      acc += alpha * cplx(std::cos(ang), std::sin(ang));
    }
    csi[k] = acc;
  }
  return csi;
}

CVec effective_cir(const std::vector<Path>& paths, const array::Ula& tx_ula,
                   const CVec& tx_weights, const WidebandSpec& spec,
                   std::size_t num_taps, const RxFrontend& rx,
                   double timing_offset_s) {
  MMR_EXPECTS(!paths.empty());
  MMR_EXPECTS(num_taps >= 1);
  const double t0 = min_delay(paths);
  const double ts = spec.sample_period();
  CVec cir(num_taps, cplx{});
  RVec pulse(num_taps);
  for (const Path& p : paths) {
    const cplx alpha = path_amplitude(p, tx_ula, tx_weights, rx);
    const double excess = p.delay_s - t0 + timing_offset_s;
    dsp::sinc_column(ts, spec.bandwidth_hz, excess, num_taps, pulse.data());
    for (std::size_t n = 0; n < num_taps; ++n) cir[n] += alpha * pulse[n];
  }
  return cir;
}

double received_power(const std::vector<Path>& paths,
                      const array::Ula& tx_ula, const CVec& tx_weights,
                      const WidebandSpec& spec, const RxFrontend& rx) {
  const CVec csi = effective_csi(paths, tx_ula, tx_weights, spec, rx);
  double acc = 0.0;
  for (const cplx& h : csi) acc += std::norm(h);
  return acc / static_cast<double>(csi.size());
}

double received_power_prepared(const std::vector<Path>& paths,
                               const array::Ula& tx_ula,
                               const CVec& tx_weights,
                               const WidebandSpec& spec, const RxFrontend& rx,
                               const double* freqs, cplx* csi) {
  effective_csi_into(paths, tx_ula, tx_weights, spec, rx, freqs, csi);
  double acc = 0.0;
  for (std::size_t k = 0; k < spec.num_subcarriers; ++k) {
    acc += std::norm(csi[k]);
  }
  return acc / static_cast<double>(spec.num_subcarriers);
}

CVec per_antenna_channel(const std::vector<Path>& paths,
                         const array::Ula& tx_ula, const RxFrontend& rx) {
  CVec h(tx_ula.num_elements, cplx{});
  for (const Path& p : paths) {
    const cplx g = p.effective_gain() * rx.response(p.aoa_rad);
    // Fused steering accumulate: h[n] += g * a(aod)[n] without the
    // steering-vector temporary.
    dsp::axpy_phasor_ramp(g, array::steering_phase_step(tx_ula, p.aod_rad),
                          h.data(), h.size());
  }
  return h;
}

}  // namespace mmr::channel
