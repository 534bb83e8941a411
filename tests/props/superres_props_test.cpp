// Differential property suite for the super-resolution fit: the
// production real-valued solve (core/superres.cpp on dsp/linalg) against
// the complex-matrix reference it replaced
// (tests/common/superres_reference.h), over >= 1500 Rng::fork cases each.
// The contract is bitwise, not a tolerance: the production solve keeps the
// reference's order of evaluation, and a zero imaginary part contributes
// exactly +/-0, so alphas, delays and residual must match to the last bit.
// Cases cover K = 1-4 beams, 4-64 taps, randomized SuperresConfig
// (multi-round refinement, single-step grids, zero spans), injected
// NaN/Inf taps, and degenerate dictionaries (coincident delays with a
// vanishing ridge) where both sides must throw the same
// not-positive-definite error.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/superres.h"
#include "dsp/polyfit.h"
#include "dsp/sinc.h"
#include "tests/common/superres_reference.h"

namespace mmr {
namespace {

constexpr std::size_t kCases = 1600;
constexpr std::uint64_t kBaseSeed = 4300023;  // paper Section 4.3, Eq. 23

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const cplx& a, const cplx& b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

struct Case {
  CVec cir;
  RVec nominal;
  double ts = 0.0;
  double bandwidth_hz = 0.0;
  core::SuperresConfig config;
  bool degenerate = false;
};

Case random_case(Rng& rng) {
  Case c;
  const std::size_t beams = 1 + rng.uniform_index(4);
  const std::size_t taps = 4 + rng.uniform_index(61);
  c.bandwidth_hz = rng.uniform(100e6, 2e9);
  // Nyquist-rate or 2x-oversampled taps.
  c.ts = (rng.bernoulli(0.7) ? 1.0 : 0.5) / c.bandwidth_hz;

  // Degenerate dictionary: coincident delays and a ridge far below the
  // Gram diagonal's ulp, so the normal equations are numerically singular.
  c.degenerate = beams >= 2 && rng.bernoulli(0.06);
  c.nominal.assign(beams, 0.0);
  for (std::size_t k = 1; k < beams; ++k) {
    c.nominal[k] = c.degenerate ? c.nominal[k - 1]
                                : rng.uniform(0.0, 6.0) * c.ts;
  }

  // Measured CIR: the beams at jittered delays plus noise.
  const double jitter = rng.uniform(-0.5, 0.5) * c.ts;
  c.cir.assign(taps, cplx{});
  for (std::size_t k = 0; k < beams; ++k) {
    const cplx amp = rng.complex_normal();
    const double tau = c.nominal[k] + jitter + rng.uniform(-0.1, 0.1) * c.ts;
    for (std::size_t n = 0; n < taps; ++n) {
      c.cir[n] += amp * dsp::sampled_sinc_tap(n, c.ts, c.bandwidth_hz, tau);
    }
  }
  const double noise = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 0.3);
  for (cplx& h : c.cir) h += rng.complex_normal(noise * noise);

  // Corrupted feedback words: sporadic NaN/Inf taps, or a whole dead CIR.
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  if (rng.bernoulli(0.02)) {
    for (cplx& h : c.cir) h = cplx{kNan, kNan};
  } else if (rng.bernoulli(0.25)) {
    const std::size_t bad = 1 + rng.uniform_index(3);
    for (std::size_t b = 0; b < bad; ++b) {
      cplx& h = c.cir[rng.uniform_index(taps)];
      const double v =
          rng.bernoulli(0.5) ? kNan : (rng.bernoulli(0.5) ? kInf : -kInf);
      h = rng.bernoulli(0.5) ? cplx{v, h.imag()} : cplx{h.real(), v};
    }
  }

  core::SuperresConfig& cfg = c.config;
  cfg.lambda = c.degenerate ? 1e-300 : std::pow(10.0, rng.uniform(-6.0, 0.0));
  cfg.common_shift_span_s =
      rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.0, 1.0) * c.ts;
  cfg.common_shift_steps = 1 + rng.uniform_index(11);
  cfg.common_shift_fine_steps = rng.uniform_index(8);
  cfg.relative_span_s =
      rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.0, 0.2) * c.ts;
  cfg.relative_steps = 1 + rng.uniform_index(5);
  cfg.refinement_rounds = rng.uniform_index(4);
  return c;
}

// Runs `fit`, returning the result or the runtime_error's message.
template <typename Fit>
bool run(Fit fit, core::SuperresResult& out, std::string& error) {
  try {
    out = fit();
    return true;
  } catch (const std::runtime_error& e) {
    error = e.what();
    return false;
  }
}

TEST(SuperresProps, RealSolveIsBitIdenticalToComplexReference) {
  const Rng base(kBaseSeed);
  std::size_t failures = 0, fitted = 0, corrupted = 0, non_pd = 0;
  std::size_t multi_round = 0, single_step = 0, zero_span = 0;
  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng = base.fork(i);
    const Case c = random_case(rng);
    core::SuperresResult got, ref;
    std::string got_error, ref_error;
    const bool got_ok = run(
        [&] {
          return core::superres_per_beam(c.cir, c.nominal, c.ts,
                                         c.bandwidth_hz, c.config);
        },
        got, got_error);
    const bool ref_ok = run(
        [&] {
          return testing::reference::superres_per_beam(
              c.cir, c.nominal, c.ts, c.bandwidth_hz, c.config);
        },
        ref, ref_error);

    bool ok = got_ok == ref_ok;
    if (ok && got_ok) {
      ok = same_bits(got.alphas, ref.alphas) &&
           same_bits(got.delays_s, ref.delays_s) &&
           same_bits(got.residual, ref.residual);
    } else if (ok) {
      ok = got_error == ref_error;
    }
    if (!ok && ++failures <= 5) {
      ADD_FAILURE() << "case " << i << ": K=" << c.nominal.size()
                    << " taps=" << c.cir.size()
                    << " got_ok=" << got_ok << " ref_ok=" << ref_ok
                    << " residual " << got.residual << " vs " << ref.residual
                    << " errors '" << got_error << "' vs '" << ref_error
                    << "'";
    }

    fitted += ref_ok ? 1 : 0;
    non_pd += ref_ok ? 0 : 1;
    for (const cplx& h : c.cir) {
      if (!std::isfinite(h.real()) || !std::isfinite(h.imag())) {
        ++corrupted;
        break;
      }
    }
    multi_round += c.config.refinement_rounds > 1 ? 1 : 0;
    single_step += (c.config.common_shift_steps == 1 ||
                    c.config.relative_steps == 1)
                       ? 1
                       : 0;
    zero_span += (c.config.common_shift_span_s == 0.0 ||
                  c.config.relative_span_s == 0.0)
                     ? 1
                     : 0;
  }
  EXPECT_EQ(failures, 0u) << failures << " of " << kCases
                          << " cases differ from the reference";
  // Coverage is part of the claim.
  EXPECT_GE(fitted, 1000u);
  EXPECT_GE(non_pd, 5u) << "no case exercised the not-positive-definite throw";
  EXPECT_GE(corrupted, 100u);
  EXPECT_GE(multi_round, 100u);
  EXPECT_GE(single_step, 100u);
  EXPECT_GE(zero_span, 100u);
}

TEST(SuperresProps, ReconstructionIsBitIdenticalToComplexReference) {
  const Rng base(kBaseSeed + 1);
  std::size_t failures = 0;
  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng = base.fork(i);
    core::SuperresResult fit;
    const std::size_t beams = 1 + rng.uniform_index(4);
    const std::size_t taps = 1 + rng.uniform_index(64);
    const double bandwidth = rng.uniform(100e6, 2e9);
    for (std::size_t k = 0; k < beams; ++k) {
      fit.alphas.push_back(rng.complex_normal());
      fit.delays_s.push_back(rng.uniform(-2.0, 8.0) / bandwidth);
    }
    const CVec got = core::reconstruct_cir(fit, taps, 1.0 / bandwidth,
                                           bandwidth);
    const CVec ref = testing::reference::reconstruct_cir(
        fit, taps, 1.0 / bandwidth, bandwidth);
    if (!same_bits(got, ref) && ++failures <= 5) {
      ADD_FAILURE() << "case " << i << " differs from the reference";
    }
  }
  EXPECT_EQ(failures, 0u);
}

TEST(SuperresProps, PolyfitIsBitIdenticalToComplexReference) {
  const Rng base(kBaseSeed + 2);
  std::size_t failures = 0;
  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng = base.fork(i);
    const std::size_t degree = rng.uniform_index(4);
    const std::size_t points = degree + 1 + rng.uniform_index(30);
    RVec xs(points), ys(points);
    for (std::size_t p = 0; p < points; ++p) {
      // Integer x (zero included) as in the tracker, or arbitrary reals.
      xs[p] = rng.bernoulli(0.5) ? static_cast<double>(p)
                                 : rng.uniform(-3.0, 3.0);
      ys[p] = rng.normal(0.0, 20.0);
    }
    const RVec got = dsp::polyfit(xs, ys, degree);
    const RVec ref = testing::reference::polyfit(xs, ys, degree);
    if (!same_bits(got, ref) && ++failures <= 5) {
      ADD_FAILURE() << "case " << i << " (degree " << degree << ", "
                    << points << " points) differs from the reference";
    }
  }
  EXPECT_EQ(failures, 0u);
}

}  // namespace
}  // namespace mmr
