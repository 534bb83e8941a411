// Cross-module consistency properties: the kind of invariants that break
// silently when one module's convention drifts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "array/weights.h"
#include "channel/wideband.h"
#include "common/angles.h"
#include "common/rng.h"
#include "phy/mcs.h"
#include "phy/ofdm.h"
#include "phy/qam.h"
#include "sim/runner.h"
#include "sim/scenario.h"

namespace mmr {
namespace {

TEST(Consistency, CsiAndCirDescribeTheSameChannel) {
  // effective_csi and effective_cir are two views of one channel: the
  // centered-frequency DFT of the sinc-sampled CIR must reproduce the CSI.
  const array::Ula ula{8, 0.5};
  const channel::WidebandSpec spec{28e9, 400e6, 64};
  channel::Path p0;
  p0.aod_rad = 0.0;
  p0.gain = cplx{1e-4, 0.0};
  channel::Path p1;
  p1.aod_rad = deg_to_rad(25.0);
  p1.gain = std::polar(0.5e-4, 0.9);
  p1.delay_s = 6.25e-9;  // a few taps of excess delay
  const std::vector<channel::Path> paths{p0, p1};
  const CVec w = array::single_beam_weights(ula, deg_to_rad(10.0));
  const auto rx = channel::RxFrontend::omni();

  const CVec csi = channel::effective_csi(paths, ula, w, spec, rx);
  const CVec cir = channel::effective_cir(paths, ula, w, spec, 64, rx);

  const double ts = spec.sample_period();
  for (std::size_t k = 0; k < spec.num_subcarriers; k += 7) {
    const double f = spec.freq_offset(k);
    cplx acc{};
    for (std::size_t n = 0; n < cir.size(); ++n) {
      const double ang = -2.0 * kPi * f * static_cast<double>(n) * ts;
      acc += cir[n] * cplx(std::cos(ang), std::sin(ang));
    }
    EXPECT_NEAR(std::abs(acc - csi[k]) / std::abs(csi[k]), 0.0, 0.05)
        << "subcarrier " << k;
  }
}

TEST(Consistency, ControllerAlwaysTransmitsUnitTrp) {
  // FCC story of Section 1: the controller must never exceed the
  // single-beam total radiated power, in any state (blocked, realigned,
  // retrained, quantized).
  sim::ScenarioConfig cfg;
  cfg.seed = 23;
  cfg.sparse_room = true;
  sim::LinkWorld world = sim::make_indoor_world(cfg, {0.0, -1.0});
  world.add_blocker(sim::crossing_blocker({0.5, 6.2}, {7.0, 6.2}, 0.4, 1.5));
  auto ctrl = sim::make_mmreliable(world, cfg, 2);
  const auto link = world.probe_interface();
  for (int i = 0; i < 300; ++i) {
    const double t = i * 2.5e-3;
    world.set_time(t);
    if (i == 0) ctrl->start(t, link); else ctrl->step(t, link);
    EXPECT_NEAR(array::total_radiated_power(ctrl->tx_weights()), 1.0, 1e-9)
        << "tick " << i;
  }
}

TEST(Consistency, FullRunsAreDeterministic) {
  auto run_once = [] {
    sim::ScenarioConfig cfg;
    cfg.seed = 29;
    sim::LinkWorld world = sim::make_indoor_world(cfg, {0.0, -0.8});
    world.add_blocker(sim::crossing_blocker({0.5, 6.2}, {7.0, 6.2}, 0.5));
    auto ctrl = sim::make_mmreliable(world, cfg, 2);
    sim::RunConfig rc;
    rc.duration_s = 0.5;
    return sim::run_experiment(world, *ctrl, rc);
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].snr_db, b.samples[i].snr_db) << "tick " << i;
    EXPECT_EQ(a.samples[i].available, b.samples[i].available);
  }
}

// gtest names each case after the raw bytes of its parameter, so the
// struct carries no compiler padding: the bytes after the one-byte
// modulation are explicit and zeroed, keeping the names the same from
// build to build instead of exposing uninitialised stack memory.
struct McsWaveformCase {
  McsWaveformCase(phy::Modulation m, double snr_db)
      : modulation(m), min_snr_db(snr_db) {}
  phy::Modulation modulation;
  std::uint8_t reserved[7] = {};
  double min_snr_db;
};
static_assert(sizeof(McsWaveformCase) == 16, "no implicit padding");

class McsWaveformTest : public ::testing::TestWithParam<McsWaveformCase> {};

TEST_P(McsWaveformTest, UncodedSerAtThresholdIsCorrectable) {
  // The MCS table promises each scheme decodes at its threshold SNR.
  // Through the actual OFDM waveform, the UNCODED symbol error rate at
  // that SNR must be in the range forward error correction handles
  // (< ~20%), and must improve markedly 4 dB above threshold.
  const auto param = GetParam();
  Rng rng(31);
  const phy::OfdmConfig cfg{64, 16};
  auto ser_at = [&](double snr_db) {
    const double noise_var = std::pow(10.0, -snr_db / 10.0);
    int errors = 0, total = 0;
    for (int frame = 0; frame < 30; ++frame) {
      CVec grid(cfg.fft_size);
      std::vector<unsigned> tx_idx(cfg.fft_size);
      for (std::size_t k = 0; k < cfg.fft_size; ++k) {
        tx_idx[k] = static_cast<unsigned>(
            rng.uniform_index(phy::constellation_size(param.modulation)));
        grid[k] = phy::map_symbol(param.modulation, tx_idx[k]);
      }
      const auto result =
          phy::run_waveform_link(cfg, grid, {{1.0, 0.0}}, noise_var, rng);
      for (std::size_t k = 0; k < cfg.fft_size; ++k) {
        errors += phy::demap_symbol(param.modulation,
                                    result.equalized[k]) != tx_idx[k];
        ++total;
      }
    }
    return static_cast<double>(errors) / total;
  };
  // Single-shot LS pilot estimation costs ~3 dB of effective SNR (a real
  // receiver averages pilots over many symbols), so the raw SER bound is
  // looser than the AWGN figure -- but still inside what rate-1/2..3/4
  // coding corrects, and it must fall steeply above threshold.
  const double at_threshold = ser_at(param.min_snr_db);
  const double above = ser_at(param.min_snr_db + 4.0);
  EXPECT_LT(at_threshold, 0.35);
  EXPECT_LT(above, at_threshold * 0.5 + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, McsWaveformTest,
    ::testing::Values(McsWaveformCase{phy::Modulation::kQpsk, 6.0},
                      McsWaveformCase{phy::Modulation::kQam16, 12.0},
                      McsWaveformCase{phy::Modulation::kQam64, 18.0},
                      McsWaveformCase{phy::Modulation::kQam256, 26.0}));

TEST(Consistency, ControllerQuantizationCostsLittle) {
  // 6-bit phase / 0.5 dB quantization inside the live controller must not
  // change the established link materially.
  sim::ScenarioConfig cfg;
  cfg.seed = 37;
  auto run_with = [&](array::QuantizationSpec spec) {
    sim::LinkWorld world = sim::make_indoor_world(cfg);
    core::MaintenanceConfig mc;
    mc.max_beams = 2;
    mc.bandwidth_hz = world.config().spec.bandwidth_hz;
    mc.outage_power_linear = world.power_for_snr(6.0);
    mc.quantization = spec;
    core::MmReliableController ctrl(
        world.config().tx_ula, sim::sector_codebook(world.config().tx_ula),
        mc);
    const auto link = world.probe_interface();
    ctrl.start(0.0, link);
    return world.true_snr_db(ctrl.tx_weights());
  };
  const double ideal = run_with(array::QuantizationSpec::ideal());
  const double testbed = run_with(array::QuantizationSpec::paper_testbed());
  EXPECT_NEAR(testbed, ideal, 0.3);
}

TEST(Consistency, TrackingDisabledFreezesAngles) {
  sim::ScenarioConfig cfg;
  cfg.seed = 41;
  sim::LinkWorld world = sim::make_indoor_world(cfg, {0.0, -1.5});
  core::MaintenanceConfig mc;
  mc.max_beams = 2;
  mc.bandwidth_hz = world.config().spec.bandwidth_hz;
  mc.outage_power_linear = world.power_for_snr(6.0);
  mc.enable_tracking = false;
  core::MmReliableController ctrl(
      world.config().tx_ula, sim::sector_codebook(world.config().tx_ula), mc);
  const auto link = world.probe_interface();
  std::vector<double> initial;
  for (int i = 0; i < 200; ++i) {
    const double t = i * 2.5e-3;
    world.set_time(t);
    if (i == 0) {
      ctrl.start(t, link);
      initial = ctrl.beam_angles();
    } else {
      ctrl.step(t, link);
    }
  }
  // No retraining happened (the link never collapsed fully), so angles
  // must be exactly the initial ones.
  ASSERT_EQ(ctrl.trainings(), 1);
  ASSERT_EQ(ctrl.beam_angles().size(), initial.size());
  for (std::size_t k = 0; k < initial.size(); ++k) {
    EXPECT_EQ(ctrl.beam_angles()[k], initial[k]);
  }
}

}  // namespace
}  // namespace mmr
