// Cross-link interference from the array-factor/sidelobe model.
//
// A neighbor link's transmit beam leaks into my receiver through its
// array pattern evaluated at MY direction (in the interferer's frame)
// attenuated by the propagation loss over the interferer-to-victim
// distance. The same expression covers co-cell co-scheduled sessions
// (src/core/multi_user.h's concern, promoted network-wide) and
// neighbor-cell leakage; the victim folds the summed interference into
// its SINR as SINR_dB = SNR_dB - 10 log10(1 + INR).
//
// The scalar entry points are allocation-free (array::array_factor is a
// fused dsp::dot_phasor_ramp) so the per-tick network scoring loop stays
// inside the zero-alloc contract; the batched variant runs the SAME fused
// evaluation per element into caller-provided storage, which keeps it
// bitwise-equal to the scalar path on every backend (pinned by the props
// tier) and allocation-free on the network's per-tick fold.
#pragma once

#include <span>

#include "array/geometry.h"
#include "common/types.h"
#include "phy/link_budget.h"

namespace mmr::net {

struct InterferenceConfig {
  bool enabled = true;
  /// Extra coupling loss between interferer and victim [dB] (walls,
  /// cross-polarization between deployments). 0 = co-polarized.
  double coupling_loss_db = 0.0;
  /// MMR_EXPECTS: coupling loss finite and non-negative.
  void validate() const;
};

/// Linear channel power gain leaked from an interfering transmitter
/// running `weights` toward a victim at `victim_angle_rad` (interferer's
/// frame), `distance_m` away: |AF(w, phi)|^2 * pathloss(d) * coupling.
/// Allocation-free.
double interferer_gain(const array::Ula& ula, const CVec& weights,
                       double victim_angle_rad, double distance_m,
                       double carrier_hz, double coupling_loss_db = 0.0);

/// Batched variant over many victims (one entry per angle/distance pair),
/// writing into caller-provided storage (`out.size()` must match).
/// BITWISE-identical to calling `interferer_gain` per victim on EVERY
/// kernel backend -- each element goes through the same fused
/// array::power_gain evaluation as the scalar path, so the network's
/// batched interference fold keeps the byte-identity contracts.
/// Allocation-free: the per-tick network scoring loop calls this with
/// preallocated buffers.
void interferer_gain_batch_into(const array::Ula& ula, const CVec& weights,
                                std::span<const double> victim_angles_rad,
                                std::span<const double> distances_m,
                                double carrier_hz, double coupling_loss_db,
                                std::span<double> out);

/// Batched variant over many victims (one entry per angle/distance pair).
/// Allocating convenience wrapper over interferer_gain_batch_into.
RVec interferer_gain_batch(const array::Ula& ula, const CVec& weights,
                           const RVec& victim_angles_rad,
                           const RVec& distances_m, double carrier_hz,
                           double coupling_loss_db = 0.0);

/// SINR_dB = SNR_dB - 10 log10(1 + INR) (phy/link_budget.h); the victim
/// fold sim::LinkSession::score applies.
using phy::sinr_db;

}  // namespace mmr::net
