// Canned evaluation scenarios matching the paper's Section 6 setups, plus
// the controller factory used by the end-to-end benches. Everything takes
// an explicit seed so figure reproductions are deterministic.
#pragma once

#include <memory>
#include <string>

#include "array/codebook.h"
#include "baselines/beamspy.h"
#include "baselines/reactive_single_beam.h"
#include "baselines/widebeam.h"
#include "core/maintenance.h"
#include "sim/world.h"

namespace mmr::sim {

/// Standard 120-degree sector codebook (paper scans a 120-degree sector).
array::Codebook sector_codebook(const array::Ula& ula, std::size_t size = 64);

struct ScenarioConfig {
  std::size_t tx_elements = 8;  ///< azimuth elements (8x8 array -> 8)
  std::size_t codebook_size = 64;
  std::uint64_t seed = 1;
  /// Use the sparse room (single strong reflector near the beam null):
  /// the regime where blocking a single beam causes a true outage.
  bool sparse_room = false;
  /// Conducted TX power [dBm]. Lower it to shrink the link margin --
  /// blockage experiments need peak SNR low enough that a blocked single
  /// beam actually falls below the 6 dB decode floor.
  double tx_power_dbm = 20.0;
};

/// gNB positions: the indoor rooms' (near the x=0 wall) and the street
/// link's (the origin).
inline constexpr channel::Vec2 kIndoorGnbPosition{0.5, 6.2};
inline constexpr channel::Vec2 kOutdoorGnbPosition{0.0, 0.0};

/// Indoor conference room, gNB at one end, UE ~7 m away.
/// `ue_velocity` / `ue_rotation_rate` build the trajectory; zeros = static.
LinkWorld make_indoor_world(const ScenarioConfig& config,
                            channel::Vec2 ue_velocity = {0.0, 0.0},
                            double ue_rotation_rate_rad_s = 0.0,
                            channel::Vec2 ue_start = {7.0, 6.2});

/// Outdoor street link (default 40 m) next to the glass building.
LinkWorld make_outdoor_world(const ScenarioConfig& config,
                             double link_distance_m = 40.0,
                             channel::Vec2 ue_velocity = {0.0, 0.0});

/// Walking blocker that crosses the link midway at the given time.
channel::GeometricBlocker crossing_blocker(channel::Vec2 link_tx,
                                           channel::Vec2 link_ue,
                                           double crossing_time_s,
                                           double walking_speed_mps = 1.0,
                                           double depth_db = 26.0);

/// Controller factories sharing an outage threshold derived from a world.
std::unique_ptr<core::MmReliableController> make_mmreliable(
    const LinkWorld& world, const ScenarioConfig& config,
    std::size_t max_beams = 2);
std::unique_ptr<baselines::ReactiveSingleBeam> make_reactive(
    const LinkWorld& world, const ScenarioConfig& config);
std::unique_ptr<baselines::BeamSpy> make_beamspy(const LinkWorld& world,
                                                 const ScenarioConfig& config);
std::unique_ptr<baselines::WideBeam> make_widebeam(
    const LinkWorld& world, const ScenarioConfig& config);

}  // namespace mmr::sim
