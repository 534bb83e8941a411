#include "common/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "dsp/backend.h"
#include "dsp/kernels.h"

namespace mmr {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(sum2 / n - mean * mean, 9.0, 0.2);
}

TEST(Rng, ComplexNormalPower) {
  Rng rng(17);
  double power = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) power += std::norm(rng.complex_normal(0.5));
  EXPECT_NEAR(power / n, 0.5, 0.02);
}

TEST(Rng, UniformIndexBoundsAndCoverage) {
  Rng rng(19);
  bool seen[10] = {};
  for (int i = 0; i < 1000; ++i) {
    const auto idx = rng.uniform_index(10);
    ASSERT_LT(idx, 10u);
    seen[idx] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(23);
  EXPECT_THROW(rng.uniform_index(0), std::logic_error);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.25);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(37);
  EXPECT_THROW(rng.exponential(0.0), std::logic_error);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.fork();
  // The two streams should not be identical.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

// Batched draws: Rng::fill_normal / fill_complex_normal (through the
// dsp glue) against n sequential normal() / complex_normal() calls, from a
// fresh generator and from one holding a cached Box-Muller sample. With
// the scalar kernel every value is bit-identical; on every backend the
// generator must end in the sequential calls' state (same uniform
// position, same cached-sample hand-off), so the next draws agree.
constexpr std::size_t kBatchSizes[] = {0, 1, 2, 3, 63, 64};
constexpr std::uint64_t kBatchStreams = 10000;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const cplx& a, const cplx& b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

// Runs `fill(batch_rng, n)` against n `draw(seq_rng)` calls over the
// streams and returns the number of mismatching values and of mismatching
// follow-up draws. With `exact_values` the batch must equal the
// sequential values and the next 8 normal() draws must too. Otherwise
// (a backend whose Box-Muller rounds differently) one normal() each
// consumes the cached sample if and only if both hold one, and the next
// 8 uniforms must be the same stream.
template <typename Fill, typename Draw>
std::pair<std::size_t, std::size_t> batch_mismatches(Fill fill, Draw draw,
                                                     bool exact_values) {
  const Rng base(0xF111ull);
  std::size_t value_mismatches = 0;
  std::size_t state_mismatches = 0;
  for (std::uint64_t c = 0; c < kBatchStreams; ++c) {
    for (std::size_t n : kBatchSizes) {
      for (bool cached : {false, true}) {
        Rng batch = base.fork(c);
        if (cached) (void)batch.normal();  // leaves the sine sample cached
        Rng seq = batch;
        const auto got = fill(batch, n);
        for (std::size_t i = 0; i < n; ++i) {
          const auto want = draw(seq);
          if (exact_values && !same_bits(got[i], want)) ++value_mismatches;
        }
        if (exact_values) {
          for (int d = 0; d < 8; ++d) {
            if (!same_bits(batch.normal(), seq.normal())) ++state_mismatches;
          }
          continue;
        }
        (void)batch.normal();
        (void)seq.normal();
        for (int d = 0; d < 8; ++d) {
          if (!same_bits(batch.uniform(), seq.uniform())) ++state_mismatches;
        }
      }
    }
  }
  return {value_mismatches, state_mismatches};
}

RVec fill_real(Rng& rng, std::size_t n) {
  RVec out(n);
  dsp::fill_normal(rng, out.data(), n);
  return out;
}

CVec fill_cplx(Rng& rng, std::size_t n) {
  CVec out(n);
  dsp::fill_complex_normal(rng, out.data(), n, 2.5e-3);
  return out;
}

TEST(RngBatch, FillNormalEqualsSequentialCallsBitForBit) {
  dsp::ScopedBackend scalar(dsp::Backend::kScalar);
  ASSERT_TRUE(scalar.ok());
  const auto [values, state] = batch_mismatches(
      fill_real, [](Rng& r) { return r.normal(); }, true);
  EXPECT_EQ(values, 0u);
  EXPECT_EQ(state, 0u);
}

TEST(RngBatch, FillComplexNormalEqualsSequentialCallsBitForBit) {
  dsp::ScopedBackend scalar(dsp::Backend::kScalar);
  ASSERT_TRUE(scalar.ok());
  const auto [values, state] = batch_mismatches(
      fill_cplx, [](Rng& r) { return r.complex_normal(2.5e-3); }, true);
  EXPECT_EQ(values, 0u);
  EXPECT_EQ(state, 0u);
}

TEST(RngBatch, EveryBackendLeavesTheSequentialState) {
  for (dsp::Backend b : dsp::compiled_backends()) {
    if (!dsp::backend_supported(b)) continue;
    dsp::ScopedBackend scoped(b);
    ASSERT_TRUE(scoped.ok());
    const auto real = batch_mismatches(
        fill_real, [](Rng& r) { return r.normal(); }, false);
    const auto cplx_draws = batch_mismatches(
        fill_cplx, [](Rng& r) { return r.complex_normal(2.5e-3); }, false);
    EXPECT_EQ(real.second, 0u) << dsp::backend_name(b);
    EXPECT_EQ(cplx_draws.second, 0u) << dsp::backend_name(b);
  }
}

}  // namespace
}  // namespace mmr
