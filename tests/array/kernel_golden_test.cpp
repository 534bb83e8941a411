// Golden-value regression for the rewired kernel callers, in the style of
// integration/sweep_golden_test.cpp: fixed inputs, constants pinned at
// %.17g from the first post-kernel run. The differential suite proves the
// kernels match a scalar reference; this file freezes the absolute values
// so a future "optimization" that shifts results numerically trips a
// loud, reviewable diff instead of drifting silently.
#include <gtest/gtest.h>

#include <cmath>

#include "array/geometry.h"
#include "array/pattern.h"
#include "common/angles.h"
#include "common/rng.h"

namespace mmr::array {
namespace {

constexpr double kRelTol = 1e-9;

void expect_close(double got, double want, const char* what) {
  const double tol = std::abs(want) * kRelTol + 1e-12;
  EXPECT_NEAR(got, want, tol) << what;
}

// `points` evenly spaced angles over [lo, hi], endpoints included.
RVec angle_grid(double lo_rad, double hi_rad, std::size_t points) {
  RVec angles(points);
  for (std::size_t i = 0; i < points; ++i) {
    angles[i] = lo_rad + (hi_rad - lo_rad) * static_cast<double>(i) /
                             static_cast<double>(points - 1);
  }
  return angles;
}

// power_gain_db of `w` at every angle of the grid.
RVec gain_grid_db(const Ula& ula, const CVec& w, const RVec& angles) {
  RVec gains;
  for (double phi : angles) gains.push_back(power_gain_db(ula, w, phi));
  return gains;
}

TEST(KernelGolden, MatchedBeamGainGrid) {
  const Ula ula{16, 0.5};
  const CVec w = single_beam_weights(ula, 0.3);
  const RVec angles = angle_grid(-kPi / 3.0, kPi / 3.0, 9);
  const RVec gain_db = gain_grid_db(ula, w, angles);
  ASSERT_EQ(gain_db.size(), 9u);

  expect_close(angles.front(), -1.0471975511965976, "angle[0]");
  expect_close(angles.back(), 1.0471975511965976, "angle[8]");

  const double want_gain_db[9] = {
      -13.754576842129149,  -35.653478752746693, -12.401382401768466,
      -9.8963166108542797,  -5.8772785064663875, 10.7773707532392,
      -2.8428925658478259,  -9.6283194135577883, -10.070395734303986};
  for (std::size_t i = 0; i < 9; ++i) {
    expect_close(gain_db[i], want_gain_db[i], "matched beam gain");
  }
  // The grid point nearest the steered direction carries the ~10*log10(N)
  // matched gain; sanity-pin the peak location too.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < 9; ++i) {
    if (gain_db[i] > gain_db[peak]) peak = i;
  }
  EXPECT_EQ(peak, 5u);
}

TEST(KernelGolden, FrozenSeedRandomWeightGainGrid) {
  const Ula ula{8, 0.5};
  Rng rng(0xB07D5EEDull);
  CVec w(ula.num_elements);
  for (auto& c : w) c = rng.complex_normal();
  const RVec gain_db = gain_grid_db(ula, w, angle_grid(-1.2, 1.2, 7));
  ASSERT_EQ(gain_db.size(), 7u);

  const double want_gain_db[7] = {
      6.9560302506840008, 6.0215334723455607,  13.330272172935153,
      12.102094539773844, -1.2368606838960736, 10.435857206740042,
      9.3825558863024874};
  for (std::size_t i = 0; i < 7; ++i) {
    expect_close(gain_db[i], want_gain_db[i], "random-weight gain");
  }
}

TEST(KernelGolden, WidebandSteeringVector) {
  const Ula ula{8, 0.5};
  constexpr double kCarrier = 28e9;
  constexpr double kPhi = 0.35;

  struct Pin {
    double offset_hz;
    double a1_re, a1_im;  // element 1
    double a7_re, a7_im;  // element 7
  };
  const Pin pins[3] = {
      {-200e6, 0.48051837336654946, -0.87698465941951653,
       0.35893561484348352, -0.93336232214340564},
      {0.0, 0.47375616111536478, -0.8806560621520938, 0.30816637796383606,
       -0.95133247789227193},
      {200e6, 0.4669658993193278, -0.88427532413433962, 0.25650332240598811,
       -0.96654334905098271},
  };
  for (const Pin& pin : pins) {
    const CVec a =
        steering_vector_wideband(ula, kPhi, kCarrier, pin.offset_hz);
    ASSERT_EQ(a.size(), 8u);
    // Element 0 is the phase reference at every frequency.
    expect_close(a[0].real(), 1.0, "a[0].re");
    expect_close(a[0].imag(), 0.0, "a[0].im");
    expect_close(a[1].real(), pin.a1_re, "a[1].re");
    expect_close(a[1].imag(), pin.a1_im, "a[1].im");
    expect_close(a[7].real(), pin.a7_re, "a[7].re");
    expect_close(a[7].imag(), pin.a7_im, "a[7].im");
    // Unit-modulus phasors, squint or not.
    for (const cplx& c : a) expect_close(std::abs(c), 1.0, "|a[n]|");
  }
}

}  // namespace
}  // namespace mmr::array
