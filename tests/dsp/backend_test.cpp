// Backend selection/dispatch contract tests plus the kernel edge and
// aliasing contracts of dsp/kernels.h, exercised on EVERY compiled
// backend:
//   * selection: parse_backend round-trips, auto maps to best_backend,
//     set_backend refuses unsupported backends, ScopedBackend restores,
//   * edges: n == 0 is a no-op / zero reduction, n == 1 is exact libm,
//   * aliasing: axpy with x == y (full overlap) is well-defined.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/kernels.h"
#include "tests/common/diff_harness.h"

namespace mmr {
namespace {

TEST(BackendSelection, ScalarAndPortableAreAlwaysCompiled) {
  const auto backends = dsp::compiled_backends();
  EXPECT_NE(std::find(backends.begin(), backends.end(), dsp::Backend::kScalar),
            backends.end());
  EXPECT_NE(std::find(backends.begin(), backends.end(),
                      dsp::Backend::kPortable),
            backends.end());
}

TEST(BackendSelection, ParseRoundTripsEveryName) {
  for (dsp::Backend b : dsp::compiled_backends()) {
    const auto parsed = dsp::parse_backend(dsp::backend_name(b));
    ASSERT_TRUE(parsed.has_value()) << dsp::backend_name(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(dsp::parse_backend("sse9").has_value());
  EXPECT_FALSE(dsp::parse_backend("").has_value());
  EXPECT_FALSE(dsp::parse_backend("AVX2").has_value()) << "names are lowercase";
}

TEST(BackendSelection, AutoParsesToBestBackend) {
  const auto parsed = dsp::parse_backend("auto");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, dsp::best_backend());
  EXPECT_TRUE(dsp::backend_supported(dsp::best_backend()));
}

TEST(BackendSelection, SetBackendRefusesUnsupported) {
  const dsp::Backend before = dsp::active_backend();
  for (dsp::Backend b :
       {dsp::Backend::kScalar, dsp::Backend::kPortable, dsp::Backend::kAvx2,
        dsp::Backend::kNeon}) {
    if (dsp::backend_supported(b)) continue;
    EXPECT_FALSE(dsp::set_backend(b)) << dsp::backend_name(b);
    EXPECT_EQ(dsp::active_backend(), before)
        << "a refused set_backend must not change the active backend";
  }
}

TEST(BackendSelection, ScopedBackendRestoresOnExit) {
  const dsp::Backend before = dsp::active_backend();
  {
    dsp::ScopedBackend scoped(dsp::Backend::kPortable);
    ASSERT_TRUE(scoped.ok());
    EXPECT_EQ(dsp::active_backend(), dsp::Backend::kPortable);
  }
  EXPECT_EQ(dsp::active_backend(), before);
}

class KernelEdges : public ::testing::TestWithParam<dsp::Backend> {
 protected:
  void SetUp() override {
    if (!dsp::backend_supported(GetParam())) {
      GTEST_SKIP() << dsp::backend_name(GetParam())
                   << " not executable on this machine";
    }
    scoped_.emplace(GetParam());
    ASSERT_TRUE(scoped_->ok());
  }

 private:
  std::optional<dsp::ScopedBackend> scoped_;
};

TEST_P(KernelEdges, LengthZeroIsANoOp) {
  // Guard values around a zero-length call must be untouched and
  // reductions must return exactly 0+0j.
  cplx guard(42.0, -7.0);
  dsp::phasor_ramp(1.3, 0, &guard);
  EXPECT_EQ(guard, cplx(42.0, -7.0));
  EXPECT_EQ(dsp::dot_phasor_ramp(0.7, &guard, 0), cplx(0.0, 0.0));
  dsp::axpy(cplx(3.0, 1.0), &guard, &guard, 0);
  EXPECT_EQ(guard, cplx(42.0, -7.0));
  dsp::axpy_phasor_ramp(cplx(3.0, 1.0), 0.7, &guard, 0);
  EXPECT_EQ(guard, cplx(42.0, -7.0));
  const double freq = 1e6;
  const dsp::FreqGrid empty = dsp::make_freq_grid(&freq, 0);
  cplx ph_guard(5.0, 6.0);
  dsp::delay_phasors(empty, 1e-9, &ph_guard);
  EXPECT_EQ(ph_guard, cplx(5.0, 6.0));
  dsp::axpy_delay_phasors(empty, cplx(3.0, 1.0), &ph_guard, &guard);
  EXPECT_EQ(guard, cplx(42.0, -7.0));
}

TEST_P(KernelEdges, LengthOneIsExactLibm) {
  // Element 0 of any ramp is exp(0) = 1 exactly; a 1-element dot is one
  // complex multiply with no accumulation to reassociate, so every
  // backend must match the scalar formula bit-for-bit.
  for (double step : {0.0, 1.7, -3.9, 25.0}) {
    cplx one;
    dsp::phasor_ramp(step, 1, &one);
    EXPECT_EQ(one, cplx(1.0, 0.0)) << "step " << step;
    const cplx w(1.25, -0.5);
    EXPECT_EQ(dsp::dot_phasor_ramp(step, &w, 1), w) << "step " << step;
  }
}

TEST_P(KernelEdges, AxpyAllowsFullyAliasedInputOutput) {
  // Contract: x == y is allowed (y[i] += alpha*y[i]); verify against the
  // unaliased computation within the backend's declared axpy tolerance.
  const dsp::Tolerance tol = dsp::tolerances(GetParam()).axpy;
  mmr::testing::UlpAudit audit(std::string("aliased axpy on ") +
                               std::string(dsp::backend_name(GetParam())));
  const Rng base(424242);
  for (std::size_t i = 0; i < 300; ++i) {
    Rng rng = base.fork(i);
    const std::size_t n = rng.uniform_index(64);
    const cplx alpha(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
    CVec y(n);
    for (cplx& c : y) c = cplx(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
    const CVec original = y;
    CVec unaliased = y;
    dsp::axpy(alpha, original.data(), unaliased.data(), n);
    dsp::axpy(alpha, y.data(), y.data(), n);  // x == y
    for (std::size_t k = 0; k < n; ++k) {
      const double scale =
          std::abs(original[k]) * (1.0 + std::abs(alpha)) + 1e-30;
      audit.compare_tol(y[k], unaliased[k], tol, scale);
    }
  }
  audit.finish(200);
}

INSTANTIATE_TEST_SUITE_P(
    AllCompiled, KernelEdges,
    ::testing::ValuesIn(dsp::compiled_backends()),
    [](const ::testing::TestParamInfo<dsp::Backend>& info) {
      return std::string(dsp::backend_name(info.param));
    });

}  // namespace
}  // namespace mmr
