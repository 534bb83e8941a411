// Wideband channel synthesis: from traced paths + beam weights to the
// observable quantities every algorithm consumes — per-subcarrier CSI
// (paper Eq. 26 projected through the beamformer) and sampled CIR
// (paper Eq. 22).
#pragma once

#include <functional>

#include "array/geometry.h"
#include "channel/path.h"
#include "common/types.h"
#include "dsp/kernels.h"

namespace mmr::channel {

/// OFDM-style frequency grid for channel evaluation.
struct WidebandSpec {
  double carrier_hz = 28.0e9;
  double bandwidth_hz = 400.0e6;
  std::size_t num_subcarriers = 64;

  double subcarrier_spacing() const {
    return bandwidth_hz / static_cast<double>(num_subcarriers);
  }
  /// Baseband frequency of subcarrier k, centered on the carrier.
  double freq_offset(std::size_t k) const {
    return (static_cast<double>(k) -
            (static_cast<double>(num_subcarriers) - 1.0) / 2.0) *
           subcarrier_spacing();
  }
  /// Nyquist sample period of the baseband (1/B).
  double sample_period() const { return 1.0 / bandwidth_hz; }
};

/// Receive front end: quasi-omni (paper Sections 3-6.1) or directional
/// ULA (Section 4.4).
struct RxFrontend {
  bool directional = false;
  array::Ula ula{};
  CVec weights{};        ///< used when directional
  double omni_gain = 1.0;

  /// Complex response toward arrival angle theta.
  cplx response(double aoa_rad) const;

  static RxFrontend omni(double gain = 1.0);
  static RxFrontend beam(const array::Ula& ula, const CVec& weights);
};

/// Complex amplitude of one path as seen through the TX beamformer and RX
/// front end at the carrier: alpha_l = g_l * AF_tx(phi_l) * AF_rx(theta_l).
cplx path_amplitude(const Path& path, const array::Ula& tx_ula,
                    const CVec& tx_weights, const RxFrontend& rx);

/// Per-subcarrier effective scalar channel H(k). Delays are referenced to
/// the earliest path (receiver timing lock), so H carries only the excess
/// delay structure.
CVec effective_csi(const std::vector<Path>& paths, const array::Ula& tx_ula,
                   const CVec& tx_weights, const WidebandSpec& spec,
                   const RxFrontend& rx);

/// Same, but with frequency-dependent TX weights (delay phased array):
/// weights_at(freq_offset_hz) -> per-element weights.
CVec effective_csi_freq_weights(
    const std::vector<Path>& paths, const array::Ula& tx_ula,
    const std::function<CVec(double)>& weights_at, const WidebandSpec& spec,
    const RxFrontend& rx);

/// Sampled channel impulse response (paper Eq. 22): num_taps taps at the
/// Nyquist period, each path contributing alpha_l * sinc(B(n Ts - tau_l)),
/// delays referenced to the earliest path. `timing_offset_s` shifts every
/// arrival (receiver SFO/timing error).
CVec effective_cir(const std::vector<Path>& paths, const array::Ula& tx_ula,
                   const CVec& tx_weights, const WidebandSpec& spec,
                   std::size_t num_taps, const RxFrontend& rx,
                   double timing_offset_s = 0.0);

/// Write spec.freq_offset(k) for k in [0, num_subcarriers) into `freqs`.
void fill_freq_grid(const WidebandSpec& spec, double* freqs);

/// The delay phasors of `paths` on `grid`: row p (grid.n entries at
/// table + p * grid.n) is dsp::delay_phasors of path p's delay past the
/// earliest path. The rows depend only on the delays, not on any beam,
/// so one table serves every CSI synthesis until the paths move.
void fill_delay_phasors(const std::vector<Path>& paths,
                        const dsp::FreqGrid& grid, cplx* table);

/// Allocation-free form of effective_csi: writes H(k) = sum_p alpha_p *
/// phasors_p[k] into `csi[0..grid.n)`, where `grid` holds
/// spec.freq_offset(k) (fill_freq_grid) and `phasors` is the
/// fill_delay_phasors table of the same paths on it -- callers cache both
/// (the grid depends only on the spec, the table only on the paths).
/// effective_csi delegates here, so cached and uncached CSI are the same
/// bits.
void effective_csi_into(const std::vector<Path>& paths,
                        const array::Ula& tx_ula, const CVec& tx_weights,
                        const RxFrontend& rx, const dsp::FreqGrid& grid,
                        const cplx* phasors, cplx* csi);

/// Mean received power across subcarriers (linear) for given weights.
double received_power(const std::vector<Path>& paths,
                      const array::Ula& tx_ula, const CVec& tx_weights,
                      const WidebandSpec& spec, const RxFrontend& rx);

/// Allocation-free form of received_power over a cached grid and
/// delay-phasor table (see effective_csi_into) and a CSI scratch buffer
/// of grid.n entries (overwritten). Bit-identical result to
/// received_power.
double received_power_prepared(const std::vector<Path>& paths,
                               const array::Ula& tx_ula,
                               const CVec& tx_weights, const RxFrontend& rx,
                               const dsp::FreqGrid& grid,
                               const cplx* phasors, cplx* csi);

/// Narrowband per-antenna channel vector h[n] at the carrier (paper
/// Eq. 7 / Eq. 25): what the oracle beamformer conjugates.
CVec per_antenna_channel(const std::vector<Path>& paths,
                         const array::Ula& tx_ula, const RxFrontend& rx);

}  // namespace mmr::channel
