#include "array/pattern.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.h"
#include "common/units.h"

namespace mmr::array {
namespace {

TEST(Pattern, PeakAtSteeredAngleEqualsN) {
  const Ula ula{8, 0.5};
  const double phi = deg_to_rad(30.0);
  const CVec w = single_beam_weights(ula, phi);
  EXPECT_NEAR(power_gain(ula, w, phi), 8.0, 1e-9);
  // And it is the global maximum over the sector.
  for (double a = -60.0; a <= 60.0; a += 1.0) {
    EXPECT_LE(power_gain(ula, w, deg_to_rad(a)), 8.0 + 1e-9);
  }
}

TEST(Pattern, FirstNullPosition) {
  // Null of an N-element half-wavelength array at sin(phi) = 2/N from
  // beam center (broadside beam).
  const Ula ula{8, 0.5};
  const CVec w = single_beam_weights(ula, 0.0);
  const double null_angle = std::asin(2.0 / 8.0);
  EXPECT_LT(power_gain_db(ula, w, null_angle), -40.0);
}

TEST(Pattern, FirstSidelobeNearMinus13dB) {
  // Uniform arrays have a -13.2 dB first sidelobe; check for N = 16.
  const Ula ula{16, 0.5};
  const CVec w = single_beam_weights(ula, 0.0);
  // First sidelobe peak near sin(phi) = 3/N.
  double best = -1e9;
  for (double s = 2.2 / 16.0; s < 3.8 / 16.0; s += 0.001) {
    best = std::max(best, power_gain_db(ula, w, std::asin(s)));
  }
  const double peak_db = to_db(16.0);
  EXPECT_NEAR(best - peak_db, -13.2, 0.6);
}

TEST(RelativeGain, UnityAtZeroOffset) {
  EXPECT_NEAR(ula_relative_gain(8, 0.5, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(ula_relative_gain_db(8, 0.5, 0.0), 0.0, 1e-9);
}

TEST(RelativeGain, MatchesFullPatternForBroadsideBeam) {
  const Ula ula{8, 0.5};
  const CVec w = single_beam_weights(ula, 0.0);
  for (double off = 0.0; off < 0.12; off += 0.02) {
    const double full = power_gain(ula, w, off) / 8.0;
    EXPECT_NEAR(ula_relative_gain(8, 0.5, off), full, 1e-9);
  }
}

class RelativeGainMonotoneTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(RelativeGainMonotoneTest, DecreasesWithinMainLobe) {
  const std::size_t n = GetParam();
  const double first_null = std::asin(1.0 / (0.5 * static_cast<double>(n)));
  double prev = 1.1;
  for (double off = 0.0; off < first_null * 0.98; off += first_null / 40.0) {
    const double g = ula_relative_gain(n, 0.5, off);
    EXPECT_LT(g, prev + 1e-12);
    prev = g;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RelativeGainMonotoneTest,
                         ::testing::Values(4, 8, 16, 32, 64));

TEST(Hpbw, MatchesRuleOfThumb) {
  // HPBW ~ 0.886 lambda / (N d) radians for broadside uniform ULA.
  for (std::size_t n : {8, 16, 32}) {
    const double hpbw = half_power_beamwidth(n, 0.5);
    const double expected = 0.886 / (0.5 * static_cast<double>(n));
    EXPECT_NEAR(hpbw, expected, expected * 0.08) << "N = " << n;
  }
}

TEST(Hpbw, ShrinksWithAperture) {
  EXPECT_GT(half_power_beamwidth(8, 0.5), half_power_beamwidth(16, 0.5));
  EXPECT_GT(half_power_beamwidth(16, 0.5), half_power_beamwidth(64, 0.5));
}

TEST(Hpbw, GainAtHalfWidthIsMinus3dB) {
  const double hpbw = half_power_beamwidth(16, 0.5);
  EXPECT_NEAR(ula_relative_gain_db(16, 0.5, hpbw / 2.0), -3.0, 0.1);
}

TEST(Pattern, MismatchedWeightsThrow) {
  const Ula ula{8, 0.5};
  CVec w(4, cplx{1.0, 0.0});
  EXPECT_THROW(power_gain(ula, w, 0.0), std::logic_error);
}

}  // namespace
}  // namespace mmr::array
