#include "sim/scenario.h"

#include <cmath>

#include "common/angles.h"
#include "common/constants.h"
#include "common/error.h"

namespace mmr::sim {

array::Codebook sector_codebook(const array::Ula& ula, std::size_t size) {
  return array::Codebook(ula, deg_to_rad(-60.0), deg_to_rad(60.0), size);
}

LinkWorld make_indoor_world(const ScenarioConfig& config,
                            channel::Vec2 ue_velocity,
                            double ue_rotation_rate_rad_s,
                            channel::Vec2 ue_start) {
  channel::Environment env =
      config.sparse_room ? channel::Environment::indoor_sparse()
                         : channel::Environment::indoor_conference_room();
  // gNB near the x=0 wall, boresight down the room (+x), link line close
  // to the glass wall so reflections detour by <1 m (see
  // Environment::indoor_conference_room).
  const channel::Pose tx{kIndoorGnbPosition, 0.0};
  // UE faces back toward the gNB.
  const channel::Pose ue0{ue_start, kPi};

  std::shared_ptr<const channel::Trajectory> traj;
  if (ue_velocity.x == 0.0 && ue_velocity.y == 0.0 &&
      ue_rotation_rate_rad_s == 0.0) {
    traj = std::make_shared<channel::StaticPose>(ue0);
  } else {
    traj = std::make_shared<channel::TranslateAndRotate>(
        ue0, ue_velocity, ue_rotation_rate_rad_s);
  }

  WorldConfig wc;
  wc.spec = {kCarrier28GHz, kBandwidth400MHz, 64};
  wc.budget = phy::LinkBudget::paper_indoor();
  wc.budget.tx_power_dbm = config.tx_power_dbm;
  wc.tx_ula = {config.tx_elements, 0.5};
  wc.rx = channel::RxFrontend::omni();
  return LinkWorld(std::move(env), tx, std::move(traj), wc, Rng(config.seed));
}

LinkWorld make_outdoor_world(const ScenarioConfig& config,
                             double link_distance_m,
                             channel::Vec2 ue_velocity) {
  MMR_EXPECTS(link_distance_m > 1.0);
  channel::Environment env = channel::Environment::outdoor_street();
  const channel::Pose tx{kOutdoorGnbPosition, 0.0};
  const channel::Pose ue0{{link_distance_m, 0.0}, kPi};

  std::shared_ptr<const channel::Trajectory> traj;
  if (ue_velocity.x == 0.0 && ue_velocity.y == 0.0) {
    traj = std::make_shared<channel::StaticPose>(ue0);
  } else {
    traj = std::make_shared<channel::LinearTranslation>(ue0, ue_velocity);
  }

  WorldConfig wc;
  wc.spec = {kCarrier28GHz, kBandwidth100MHz, 64};
  wc.budget = phy::LinkBudget::paper_outdoor();
  wc.tx_ula = {config.tx_elements, 0.5};
  wc.rx = channel::RxFrontend::omni();
  return LinkWorld(std::move(env), tx, std::move(traj), wc, Rng(config.seed));
}

channel::GeometricBlocker crossing_blocker(channel::Vec2 link_tx,
                                           channel::Vec2 link_ue,
                                           double crossing_time_s,
                                           double walking_speed_mps,
                                           double depth_db) {
  MMR_EXPECTS(walking_speed_mps > 0.0);
  const channel::Vec2 mid = (link_tx + link_ue) * 0.5;
  const channel::Vec2 dir = normalized(link_ue - link_tx);
  const channel::Vec2 perp{-dir.y, dir.x};
  channel::GeometricBlocker::Config bc;
  bc.velocity = perp * walking_speed_mps;
  bc.start = mid - bc.velocity * crossing_time_s;
  bc.depth_db = depth_db;
  return channel::GeometricBlocker(bc);
}

namespace {

core::TrainingConfig default_training() {
  core::TrainingConfig tc;
  tc.top_k = 3;
  tc.min_separation_rad = deg_to_rad(8.0);
  tc.max_rel_power_db = 12.0;
  return tc;
}

}  // namespace

std::unique_ptr<core::MmReliableController> make_mmreliable(
    const LinkWorld& world, const ScenarioConfig& config,
    std::size_t max_beams) {
  const array::Ula ula = world.config().tx_ula;
  core::MaintenanceConfig mc;
  mc.max_beams = max_beams;
  mc.bandwidth_hz = world.config().spec.bandwidth_hz;
  mc.outage_power_linear = world.power_for_snr(kOutageSnrDb);
  mc.training = default_training();
  return std::make_unique<core::MmReliableController>(
      ula, sector_codebook(ula, config.codebook_size), mc);
}

std::unique_ptr<baselines::ReactiveSingleBeam> make_reactive(
    const LinkWorld& world, const ScenarioConfig& config) {
  const array::Ula ula = world.config().tx_ula;
  baselines::ReactiveConfig rc;
  rc.outage_power_linear = world.power_for_snr(kOutageSnrDb);
  rc.training = default_training();
  return std::make_unique<baselines::ReactiveSingleBeam>(
      ula, sector_codebook(ula, config.codebook_size), rc);
}

std::unique_ptr<baselines::BeamSpy> make_beamspy(const LinkWorld& world,
                                                 const ScenarioConfig& config) {
  const array::Ula ula = world.config().tx_ula;
  baselines::BeamSpyConfig bc;
  bc.outage_power_linear = world.power_for_snr(kOutageSnrDb);
  bc.training = default_training();
  return std::make_unique<baselines::BeamSpy>(
      ula, sector_codebook(ula, config.codebook_size), bc);
}

std::unique_ptr<baselines::WideBeam> make_widebeam(
    const LinkWorld& world, const ScenarioConfig& config) {
  const array::Ula ula = world.config().tx_ula;
  baselines::WideBeamConfig wc;
  wc.outage_power_linear = world.power_for_snr(kOutageSnrDb);
  wc.training = default_training();
  return std::make_unique<baselines::WideBeam>(
      ula, sector_codebook(ula, config.codebook_size), wc);
}

}  // namespace mmr::sim
