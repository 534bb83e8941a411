// Differential tests for the batched/cached beamforming kernels: every
// fast path (dsp/kernels.h, array/pattern_cache.h, the rewired
// geometry/pattern/wideband callers) is driven with randomized inputs
// from Rng::fork sub-streams and compared element-wise against a scalar
// reference that re-states the pre-batching implementation, to a budget
// of <= 1 ULP. The cache suites additionally require BIT-IDENTICAL
// results (cached vs uncached vs disabled) and hammer a shared cache
// from a thread pool so the `kernels` ctest label under -DMMR_TSAN=ON
// proves the sharded storage race-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "array/codebook.h"
#include "array/geometry.h"
#include "array/pattern.h"
#include "array/pattern_cache.h"
#include "channel/wideband.h"
#include "common/angles.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "core/multibeam.h"
#include "dsp/backend.h"
#include "dsp/kernels.h"
#include "dsp/sinc.h"
#include "tests/common/diff_harness.h"

namespace mmr {
namespace {

using array::Ula;
using mmr::testing::UlpAudit;

// The <= 1-ULP pins below state the bit-compat contract of the SCALAR
// reference backend; fast backends are audited by the KernelBackendSweep
// tier at the end of this file under their declared tolerances
// (dsp::tolerances). Force the reference path for the pinned suites no
// matter what the machine's CPUID default is.
class KernelDiff : public ::testing::Test {
 protected:
  KernelDiff() : scoped_(dsp::Backend::kScalar) {}
  void SetUp() override { ASSERT_TRUE(scoped_.ok()); }

 private:
  dsp::ScopedBackend scoped_;
};

// ---------------------------------------------------------------------------
// Scalar references: the pre-batching implementations, restated naively.
// ---------------------------------------------------------------------------

CVec ref_steering(const Ula& ula, double phi_rad) {
  CVec a(ula.num_elements);
  const double k = 2.0 * kPi * ula.spacing_wavelengths * std::sin(phi_rad);
  for (std::size_t n = 0; n < ula.num_elements; ++n) {
    const double ang = -k * static_cast<double>(n);
    a[n] = cplx(std::cos(ang), std::sin(ang));
  }
  return a;
}

CVec ref_steering_wideband(const Ula& ula, double phi_rad, double carrier_hz,
                           double freq_offset_hz) {
  const double scale = (carrier_hz + freq_offset_hz) / carrier_hz;
  Ula scaled = ula;
  scaled.spacing_wavelengths = ula.spacing_wavelengths * scale;
  return ref_steering(scaled, phi_rad);
}

CVec ref_single_beam_weights(const Ula& ula, double phi_rad) {
  CVec w = ref_steering(ula, phi_rad);
  const double inv_sqrt_n = 1.0 / std::sqrt(static_cast<double>(w.size()));
  for (auto& c : w) c = std::conj(c) * inv_sqrt_n;
  return w;
}

cplx ref_array_factor(const Ula& ula, const CVec& weights, double phi_rad) {
  const CVec a = ref_steering(ula, phi_rad);
  cplx acc{};
  for (std::size_t n = 0; n < a.size(); ++n) acc += a[n] * weights[n];
  return acc;
}

array::PatternCut ref_pattern_cut(const Ula& ula, const CVec& weights,
                                  double lo_rad, double hi_rad,
                                  std::size_t points) {
  array::PatternCut cut;
  cut.angle_rad.resize(points);
  cut.gain_db.resize(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double phi = lo_rad + (hi_rad - lo_rad) * static_cast<double>(i) /
                                    static_cast<double>(points - 1);
    cut.angle_rad[i] = phi;
    cut.gain_db[i] = to_db(std::norm(ref_array_factor(ula, weights, phi)));
  }
  return cut;
}

CVec ref_effective_csi(const std::vector<channel::Path>& paths,
                       const Ula& tx_ula, const CVec& tx_weights,
                       const channel::WidebandSpec& spec,
                       const channel::RxFrontend& rx) {
  double t0 = paths.front().delay_s;
  for (const channel::Path& p : paths) t0 = std::min(t0, p.delay_s);
  CVec csi(spec.num_subcarriers, cplx{});
  for (const channel::Path& p : paths) {
    const cplx alpha = p.effective_gain() *
                       ref_array_factor(tx_ula, tx_weights, p.aod_rad) *
                       rx.response(p.aoa_rad);
    const double excess = p.delay_s - t0;
    for (std::size_t k = 0; k < spec.num_subcarriers; ++k) {
      const double ang = -2.0 * kPi * spec.freq_offset(k) * excess;
      csi[k] += alpha * cplx(std::cos(ang), std::sin(ang));
    }
  }
  return csi;
}

CVec ref_per_antenna_channel(const std::vector<channel::Path>& paths,
                             const Ula& tx_ula,
                             const channel::RxFrontend& rx) {
  CVec h(tx_ula.num_elements, cplx{});
  for (const channel::Path& p : paths) {
    const cplx g = p.effective_gain() * rx.response(p.aoa_rad);
    const CVec a = ref_steering(tx_ula, p.aod_rad);
    for (std::size_t n = 0; n < h.size(); ++n) h[n] += g * a[n];
  }
  return h;
}

Ula random_ula(Rng& rng) {
  return Ula{1 + rng.uniform_index(64), rng.uniform(0.05, 1.0)};
}

double random_angle(Rng& rng) { return rng.uniform(-kPi / 2.0, kPi / 2.0); }

CVec random_cvec(Rng& rng, std::size_t n) {
  CVec v(n);
  for (auto& c : v) c = rng.complex_normal();
  return v;
}

std::vector<channel::Path> random_paths(Rng& rng, std::size_t count) {
  std::vector<channel::Path> paths(count);
  for (channel::Path& p : paths) {
    p.aod_rad = random_angle(rng);
    p.aoa_rad = random_angle(rng);
    p.gain = rng.complex_normal(0.1);
    p.delay_s = rng.uniform(0.0, 500e-9);
    p.blockage_db = rng.bernoulli(0.3) ? rng.uniform(0.0, 20.0) : 0.0;
  }
  return paths;
}

bool bitwise_equal(const CVec& a, const CVec& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (mmr::testing::ulp_distance(a[i], b[i]) != 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// dsp kernel primitives vs naive loops
// ---------------------------------------------------------------------------

TEST_F(KernelDiff, PhasorRampMatchesScalarReference) {
  Rng base(0xA11CE5EEDull);
  UlpAudit audit("phasor_ramp");
  for (std::uint64_t c = 0; c < 300; ++c) {
    Rng rng = base.fork(c);
    const double step = rng.uniform(-20.0, 20.0);
    const std::size_t n = 1 + rng.uniform_index(96);
    CVec interleaved(n);
    dsp::phasor_ramp(step, n, interleaved.data());
    RVec re(n), im(n);
    dsp::phasor_ramp(step, n, re.data(), im.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double ang = -step * static_cast<double>(i);
      const cplx ref(std::cos(ang), std::sin(ang));
      audit.compare(interleaved[i], ref, 1);
      audit.compare(cplx(re[i], im[i]), ref, 1);
      audit.compare(dsp::unit_phasor(step, i), ref, 1);
    }
  }
  audit.finish(10000);
}

TEST_F(KernelDiff, CdotMatchesSequentialAccumulation) {
  Rng base(0xC0D07ull);
  UlpAudit audit("cdot");
  for (std::uint64_t c = 0; c < 400; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 1 + rng.uniform_index(257);
    const CVec a = random_cvec(rng, n);
    const CVec b = random_cvec(rng, n);
    cplx ref{};
    for (std::size_t i = 0; i < n; ++i) ref += a[i] * b[i];
    audit.compare(dsp::cdot(a.data(), b.data(), n), ref, 1);
  }
  audit.finish(400);
}

TEST_F(KernelDiff, DotPhasorRampMatchesMaterializedDot) {
  Rng base(0xD07FA50ull);
  UlpAudit audit("dot_phasor_ramp");
  for (std::uint64_t c = 0; c < 600; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 1 + rng.uniform_index(128);
    const double step = rng.uniform(-20.0, 20.0);
    const CVec w = random_cvec(rng, n);
    cplx ref{};
    for (std::size_t i = 0; i < n; ++i) {
      const double ang = -step * static_cast<double>(i);
      ref += cplx(std::cos(ang), std::sin(ang)) * w[i];
    }
    audit.compare(dsp::dot_phasor_ramp(step, w.data(), n), ref, 1);
  }
  audit.finish(600);
}

TEST_F(KernelDiff, AxpyKernelsMatchNaiveLoops) {
  Rng base(0xA4B1ull);
  UlpAudit audit("axpy family");
  for (std::uint64_t c = 0; c < 300; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 1 + rng.uniform_index(96);
    const cplx alpha = rng.complex_normal();
    const CVec x = random_cvec(rng, n);
    const CVec y0 = random_cvec(rng, n);

    CVec got = y0;
    dsp::axpy(alpha, x.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      audit.compare(got[i], y0[i] + alpha * x[i], 1);
    }

    const double step = rng.uniform(-20.0, 20.0);
    CVec got_ramp = y0;
    dsp::axpy_phasor_ramp(alpha, step, got_ramp.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const double ang = -step * static_cast<double>(i);
      const cplx ref = y0[i] + alpha * cplx(std::cos(ang), std::sin(ang));
      audit.compare(got_ramp[i], ref, 1);
    }
  }
  audit.finish(10000);
}

TEST_F(KernelDiff, DelayPhasorAccumulateMatchesScalarLoop) {
  Rng base(0xDE1A7ull);
  UlpAudit audit("accumulate_delay_phasors");
  for (std::uint64_t c = 0; c < 150; ++c) {
    Rng rng = base.fork(c);
    channel::WidebandSpec spec;
    spec.num_subcarriers = 16 + 16 * rng.uniform_index(4);
    spec.bandwidth_hz = rng.uniform(50e6, 800e6);
    RVec freqs(spec.num_subcarriers);
    for (std::size_t k = 0; k < freqs.size(); ++k) {
      freqs[k] = spec.freq_offset(k);
    }
    const cplx alpha = rng.complex_normal();
    const double delay = rng.uniform(0.0, 500e-9);
    const CVec dst0 = random_cvec(rng, freqs.size());

    CVec got = dst0;
    dsp::accumulate_delay_phasors(alpha, freqs.data(), delay, got.data(),
                                  got.size());
    for (std::size_t k = 0; k < freqs.size(); ++k) {
      const double ang = -2.0 * kPi * freqs[k] * delay;
      const cplx ref = dst0[k] + alpha * cplx(std::cos(ang), std::sin(ang));
      audit.compare(got[k], ref, 1);
    }
  }
  audit.finish(2400);
}

// The transcendental kernels' scalar entries are the loops they replaced,
// restated here: Rng::normal's Box-Muller step, the ChannelEstimator probe
// loop and dsp::sampled_sinc_tap. 0 ULP.

void ref_box_muller(double u1, double u2, double* z0, double* z1) {
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  *z0 = r * std::cos(2.0 * kPi * u2);
  *z1 = r * std::sin(2.0 * kPi * u2);
}

cplx ref_impair(cplx truth, cplx noise, double phase0, double slope,
                std::size_t k) {
  const double phase = phase0 + slope * static_cast<double>(k);
  const cplx rot(std::cos(phase), std::sin(phase));
  return (truth + noise) * rot;
}

TEST_F(KernelDiff, BoxMullerMatchesRngNormalStep) {
  Rng base(0xB0C5D1ull);
  UlpAudit audit("box_muller");
  for (std::uint64_t c = 0; c < 400; ++c) {
    Rng rng = base.fork(c);
    const std::size_t pairs = rng.uniform_index(64);
    RVec u(2 * pairs);
    for (double& x : u) x = rng.uniform();
    if (pairs > 0 && rng.bernoulli(0.1)) u[0] = 0.0;
    RVec got(2 * pairs);
    dsp::box_muller(u.data(), pairs, got.data());
    for (std::size_t p = 0; p < pairs; ++p) {
      double z0;
      double z1;
      ref_box_muller(u[2 * p], u[2 * p + 1], &z0, &z1);
      audit.compare(got[2 * p], z0, 0);
      audit.compare(got[2 * p + 1], z1, 0);
    }
  }
  audit.finish(10000);
}

TEST_F(KernelDiff, ImpairCsiMatchesEstimatorLoop) {
  Rng base(0x1A9A12ull);
  UlpAudit audit("impair_csi");
  for (std::uint64_t c = 0; c < 300; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = rng.uniform_index(130);
    const CVec truth = random_cvec(rng, n);
    const CVec noise = random_cvec(rng, n);
    const double phase0 = rng.uniform(0.0, 2.0 * kPi);
    const double slope = rng.normal(0.0, 0.05);
    CVec got(n);
    dsp::impair_csi(truth.data(), noise.data(), phase0, slope, n, got.data());
    for (std::size_t k = 0; k < n; ++k) {
      audit.compare(got[k], ref_impair(truth[k], noise[k], phase0, slope, k),
                    0);
    }
  }
  audit.finish(10000);
}

TEST_F(KernelDiff, SincColumnMatchesSampledSincTaps) {
  Rng base(0x51C0ull);
  UlpAudit audit("sinc_column");
  for (std::uint64_t c = 0; c < 400; ++c) {
    Rng rng = base.fork(c);
    const double bw = rng.uniform(50e6, 2e9);
    const double ts = 1.0 / bw;
    const double tau = rng.uniform(-5.0, 60.0) * ts;
    const std::size_t n = rng.uniform_index(64);
    RVec got(n);
    dsp::sinc_column(ts, bw, tau, n, got.data());
    for (std::size_t i = 0; i < n; ++i) {
      audit.compare(got[i], dsp::sampled_sinc_tap(i, ts, bw, tau), 0);
    }
  }
  audit.finish(10000);
}

// ---------------------------------------------------------------------------
// Rewired production functions vs pre-PR scalar references
// ---------------------------------------------------------------------------

TEST_F(KernelDiff, SteeringVectorAndBatchMatchScalarReference) {
  Rng base(0x57EE41ull);
  UlpAudit audit("steering_vector[_batch]");
  for (std::uint64_t c = 0; c < 150; ++c) {
    Rng rng = base.fork(c);
    const Ula ula = random_ula(rng);
    const std::size_t num_angles = 1 + rng.uniform_index(16);
    RVec phis(num_angles);
    for (double& p : phis) p = random_angle(rng);

    const dsp::CplxBatch batch = array::steering_vector_batch(ula, phis);
    ASSERT_EQ(batch.rows(), num_angles);
    ASSERT_EQ(batch.cols(), ula.num_elements);
    for (std::size_t r = 0; r < num_angles; ++r) {
      const CVec ref = ref_steering(ula, phis[r]);
      const CVec prod = array::steering_vector(ula, phis[r]);
      const CVec row = batch.row(r);
      for (std::size_t n = 0; n < ula.num_elements; ++n) {
        audit.compare(prod[n], ref[n], 1);
        audit.compare(batch.at(r, n), ref[n], 1);
        // Batched and production paths run the identical expression:
        // they must agree exactly, not just within the ULP budget.
        audit.compare(row[n], prod[n], 0);
      }
    }
  }
  audit.finish(10000);
}

TEST_F(KernelDiff, WidebandSteeringBatchMatchesScalarReference) {
  Rng base(0x51D37ull);
  UlpAudit audit("steering_vector_wideband_batch");
  for (std::uint64_t c = 0; c < 120; ++c) {
    Rng rng = base.fork(c);
    const Ula ula = random_ula(rng);
    const double phi = random_angle(rng);
    const double carrier = rng.uniform(24e9, 40e9);
    const std::size_t num_offsets = 1 + rng.uniform_index(8);
    RVec offsets(num_offsets);
    for (double& f : offsets) f = rng.uniform(-200e6, 200e6);

    const dsp::CplxBatch batch =
        array::steering_vector_wideband_batch(ula, phi, carrier, offsets);
    for (std::size_t r = 0; r < num_offsets; ++r) {
      const CVec ref = ref_steering_wideband(ula, phi, carrier, offsets[r]);
      const CVec prod =
          array::steering_vector_wideband(ula, phi, carrier, offsets[r]);
      for (std::size_t n = 0; n < ula.num_elements; ++n) {
        audit.compare(prod[n], ref[n], 1);
        audit.compare(batch.at(r, n), prod[n], 0);
      }
    }
  }
  audit.finish(10000);
}

TEST_F(KernelDiff, ArrayFactorFusedMatchesMaterializedReference) {
  Rng base(0xAF5EEDull);
  UlpAudit audit("array_factor[_batch]");
  for (std::uint64_t c = 0; c < 250; ++c) {
    Rng rng = base.fork(c);
    const Ula ula = random_ula(rng);
    const CVec w = random_cvec(rng, ula.num_elements);
    const std::size_t num_angles = 1 + rng.uniform_index(8);
    RVec phis(num_angles);
    for (double& p : phis) p = random_angle(rng);

    const CVec batch = array::array_factor_batch(ula, w, phis);
    const RVec gains = array::power_gain_db_batch(ula, w, phis);
    for (std::size_t r = 0; r < num_angles; ++r) {
      const cplx ref = ref_array_factor(ula, w, phis[r]);
      const cplx prod = array::array_factor(ula, w, phis[r]);
      audit.compare(prod, ref, 1);
      audit.compare(batch[r], prod, 0);
      audit.compare(gains[r], array::power_gain_db(ula, w, phis[r]), 0);
    }
  }
  audit.finish(1000);
}

TEST_F(KernelDiff, SingleBeamWeightsBatchMatchesScalarReference) {
  Rng base(0x5B3Dull);
  UlpAudit audit("single_beam_weights[_batch]");
  for (std::uint64_t c = 0; c < 120; ++c) {
    Rng rng = base.fork(c);
    const Ula ula = random_ula(rng);
    const std::size_t num_angles = 1 + rng.uniform_index(6);
    RVec phis(num_angles);
    for (double& p : phis) p = random_angle(rng);

    const std::vector<CVec> batch =
        array::single_beam_weights_batch(ula, phis);
    for (std::size_t r = 0; r < num_angles; ++r) {
      const CVec ref = ref_single_beam_weights(ula, phis[r]);
      const CVec prod = array::single_beam_weights(ula, phis[r]);
      for (std::size_t n = 0; n < ula.num_elements; ++n) {
        audit.compare(prod[n], ref[n], 1);
        audit.compare(batch[r][n], prod[n], 0);
      }
    }
  }
  audit.finish(10000);
}

TEST_F(KernelDiff, PatternCutMatchesScalarReference) {
  Rng base(0x9A77E2Cull);
  UlpAudit angle_audit("pattern_cut angles");
  UlpAudit gain_audit("pattern_cut gains");
  for (std::uint64_t c = 0; c < 60; ++c) {
    Rng rng = base.fork(c);
    const Ula ula = random_ula(rng);
    const CVec w = random_cvec(rng, ula.num_elements);
    const double lo = rng.uniform(-kPi / 2.0, 0.0);
    const double hi = rng.uniform(lo + 0.01, kPi / 2.0);
    const std::size_t points = 2 + rng.uniform_index(63);

    const array::PatternCut got = array::pattern_cut(ula, w, lo, hi, points);
    const array::PatternCut ref = ref_pattern_cut(ula, w, lo, hi, points);
    // The angle grid is exact arithmetic on identical expressions.
    angle_audit.compare_vec(got.angle_rad, ref.angle_rad, 0);
    gain_audit.compare_vec(got.gain_db, ref.gain_db, 1);
  }
  angle_audit.finish(120);
  gain_audit.finish(120);
}

TEST_F(KernelDiff, EffectiveCsiMatchesPrePrReference) {
  Rng base(0xC51D1FFull);
  UlpAudit audit("effective_csi");
  for (std::uint64_t c = 0; c < 60; ++c) {
    Rng rng = base.fork(c);
    const Ula tx_ula = random_ula(rng);
    const CVec tx_w = ref_single_beam_weights(tx_ula, random_angle(rng));
    channel::WidebandSpec spec;
    spec.num_subcarriers = 16 + 16 * rng.uniform_index(4);
    const std::vector<channel::Path> paths =
        random_paths(rng, 1 + rng.uniform_index(4));

    channel::RxFrontend rx;
    if (rng.bernoulli(0.5)) {
      rx = channel::RxFrontend::omni(rng.uniform(0.5, 2.0));
    } else {
      const Ula rx_ula = random_ula(rng);
      rx = channel::RxFrontend::beam(
          rx_ula, ref_single_beam_weights(rx_ula, random_angle(rng)));
    }

    const CVec got = channel::effective_csi(paths, tx_ula, tx_w, spec, rx);
    const CVec ref = ref_effective_csi(paths, tx_ula, tx_w, spec, rx);
    audit.compare_vec(got, ref, 1);
  }
  audit.finish(960);
}

TEST_F(KernelDiff, PerAntennaChannelMatchesPrePrReference) {
  Rng base(0x9E2A27ull);
  UlpAudit audit("per_antenna_channel");
  for (std::uint64_t c = 0; c < 120; ++c) {
    Rng rng = base.fork(c);
    const Ula tx_ula = random_ula(rng);
    const std::vector<channel::Path> paths =
        random_paths(rng, 1 + rng.uniform_index(4));
    const channel::RxFrontend rx =
        channel::RxFrontend::omni(rng.uniform(0.5, 2.0));
    const CVec got = channel::per_antenna_channel(paths, tx_ula, rx);
    const CVec ref = ref_per_antenna_channel(paths, tx_ula, rx);
    audit.compare_vec(got, ref, 1);
  }
  audit.finish(120);
}

// ---------------------------------------------------------------------------
// PatternCache: bit-identity, stats, invalidation, thread safety
// ---------------------------------------------------------------------------

TEST(PatternCacheDiff, BeamWeightsBitIdenticalColdWarmAndDisabled) {
  array::PatternCache cache;
  Rng base(0xCAC8Eull);
  UlpAudit audit("cache beam_weights");
  for (std::uint64_t c = 0; c < 50; ++c) {
    Rng rng = base.fork(c);
    const Ula ula = random_ula(rng);
    const double phi = random_angle(rng);
    const CVec direct = array::single_beam_weights(ula, phi);

    const auto cold = cache.beam_weights(ula, phi);  // miss: computes
    const auto warm = cache.beam_weights(ula, phi);  // hit: shared object
    EXPECT_EQ(cold.get(), warm.get());
    audit.compare_vec(*cold, direct, 0);

    cache.set_enabled(false);
    const auto bypass = cache.beam_weights(ula, phi);
    cache.set_enabled(true);
    EXPECT_NE(bypass.get(), cold.get());
    audit.compare_vec(*bypass, direct, 0);
  }
  audit.finish(100);
}

TEST(PatternCacheDiff, CutBitIdenticalColdWarmAndDisabled) {
  array::PatternCache cache;
  Rng base(0xC07C17ull);
  UlpAudit audit("cache cut");
  for (std::uint64_t c = 0; c < 30; ++c) {
    Rng rng = base.fork(c);
    const Ula ula = random_ula(rng);
    const CVec w = random_cvec(rng, ula.num_elements);
    const double lo = rng.uniform(-kPi / 2.0, 0.0);
    const double hi = rng.uniform(lo + 0.01, kPi / 2.0);
    const std::size_t points = 2 + rng.uniform_index(31);
    const array::PatternCut direct =
        array::pattern_cut(ula, w, lo, hi, points);

    const auto cold = cache.cut(ula, w, lo, hi, points);
    const auto warm = cache.cut(ula, w, lo, hi, points);
    EXPECT_EQ(cold.get(), warm.get());
    audit.compare_vec(cold->angle_rad, direct.angle_rad, 0);
    audit.compare_vec(cold->gain_db, direct.gain_db, 0);

    cache.set_enabled(false);
    const auto bypass = cache.cut(ula, w, lo, hi, points);
    cache.set_enabled(true);
    EXPECT_NE(bypass.get(), cold.get());
    audit.compare_vec(bypass->gain_db, direct.gain_db, 0);
  }
  audit.finish(60);
}

TEST(PatternCacheDiff, StatsCountHitsAndMisses) {
  array::PatternCache cache;
  const Ula ula{16, 0.5};
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);

  (void)cache.beam_weights(ula, 0.1);
  (void)cache.beam_weights(ula, 0.2);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);

  (void)cache.beam_weights(ula, 0.1);
  (void)cache.beam_weights(ula, 0.1);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);

  // Distinct keys must not alias: a sign flip or different element count
  // is a different entry, not a hit.
  (void)cache.beam_weights(ula, -0.1);
  (void)cache.beam_weights(Ula{8, 0.5}, 0.1);
  EXPECT_EQ(cache.stats().misses, 4u);

  cache.reset_stats();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);

  // Disabled lookups touch neither counter.
  cache.set_enabled(false);
  (void)cache.beam_weights(ula, 0.1);
  cache.set_enabled(true);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(PatternCacheDiff, ClearKeepsOutstandingResultsValid) {
  array::PatternCache cache;
  const Ula ula{32, 0.5};
  const auto held = cache.beam_weights(ula, 0.25);
  const CVec snapshot = *held;

  cache.clear();
  // The outstanding shared_ptr still owns the (immutable) value.
  EXPECT_TRUE(bitwise_equal(*held, snapshot));

  // Post-clear lookup recomputes: fresh object, identical bits.
  const auto recomputed = cache.beam_weights(ula, 0.25);
  EXPECT_NE(recomputed.get(), held.get());
  EXPECT_TRUE(bitwise_equal(*recomputed, snapshot));
}

TEST(PatternCacheDiff, SharedAcrossThreadsBitIdenticalAndRaceClean) {
  // Many workers hammer one cache on a small key set while other tasks
  // clear() it mid-flight: every returned value must still be bitwise
  // equal to the scalar reference (and TSAN must see no races — this test
  // is the core of the `kernels` label's -DMMR_TSAN=ON run).
  array::PatternCache cache;
  const Ula ula{32, 0.5};
  constexpr std::size_t kAngles = 8;
  std::vector<double> phis(kAngles);
  std::vector<CVec> refs(kAngles);
  for (std::size_t i = 0; i < kAngles; ++i) {
    phis[i] = -0.7 + 0.2 * static_cast<double>(i);
    refs[i] = array::single_beam_weights(ula, phis[i]);
  }
  const CVec probe_w = refs[0];
  const array::PatternCut cut_ref =
      array::pattern_cut(ula, probe_w, -1.0, 1.0, 33);

  std::atomic<std::size_t> mismatches{0};
  ThreadPool pool(4);
  pool.parallel_for(96, [&](std::size_t task) {
    if (task % 16 == 15) cache.clear();
    for (std::size_t rep = 0; rep < 8; ++rep) {
      const std::size_t i = (task + rep) % kAngles;
      const auto w = cache.beam_weights(ula, phis[i]);
      if (!bitwise_equal(*w, refs[i])) mismatches.fetch_add(1);
    }
    const auto cut = cache.cut(ula, probe_w, -1.0, 1.0, 33);
    if (cut->gain_db != cut_ref.gain_db ||
        cut->angle_rad != cut_ref.angle_rad) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
  const auto st = cache.stats();
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.misses, 0u);
}

TEST(PatternCacheDiff, RewiredCallersBitStableAcrossCacheStates) {
  // synthesize_multibeam and Codebook go through the global instance;
  // their output must not depend on cache state (cold / warm / disabled).
  array::PatternCache& cache = array::PatternCache::instance();
  const Ula ula{16, 0.5};
  const std::vector<core::BeamComponent> comps = {
      {-0.3, cplx{1.0, 0.0}}, {0.4, cplx{0.6, -0.2}}};

  cache.clear();
  const CVec cold = core::synthesize_multibeam(ula, comps).weights;
  const CVec warm = core::synthesize_multibeam(ula, comps).weights;
  cache.set_enabled(false);
  const CVec bypass = core::synthesize_multibeam(ula, comps).weights;
  cache.set_enabled(true);
  EXPECT_TRUE(bitwise_equal(cold, warm));
  EXPECT_TRUE(bitwise_equal(cold, bypass));

  cache.clear();
  const array::Codebook cb_cold(ula, -1.0, 1.0, 9);
  const array::Codebook cb_warm(ula, -1.0, 1.0, 9);
  for (std::size_t i = 0; i < cb_cold.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(cb_cold.weights(i), cb_warm.weights(i)));
    EXPECT_TRUE(bitwise_equal(
        cb_cold.weights(i),
        array::single_beam_weights(ula, cb_cold.angle(i))));
  }
}

// ---------------------------------------------------------------------------
// Backend sweep: every compiled+executable backend vs the scalar
// reference, under the backend's DECLARED tolerance (dsp::tolerances).
// One parameterized instance per backend so a failure names the backend
// in the test id; compiled-but-unexecutable backends (e.g. avx2 binary
// on a pre-AVX2 CPU) skip.
// ---------------------------------------------------------------------------

class KernelBackendSweep : public ::testing::TestWithParam<dsp::Backend> {
 protected:
  void SetUp() override {
    if (!dsp::backend_supported(GetParam())) {
      GTEST_SKIP() << "backend " << dsp::backend_name(GetParam())
                   << " not executable on this CPU";
    }
    tol_ = dsp::tolerances(GetParam());
  }

  // Runs `fn` with the swept backend active; references are computed
  // with an inner scalar override so both sides come from the same
  // binary.
  template <typename Fn>
  void with_backend(Fn&& fn) {
    dsp::ScopedBackend scoped(GetParam());
    ASSERT_TRUE(scoped.ok());
    fn();
  }

  dsp::KernelTolerances tol_;
};

TEST_P(KernelBackendSweep, PhasorRampWithinDeclaredTolerance) {
  Rng base(0xB4C4E2ADull);
  UlpAudit audit(std::string("phasor_ramp/") +
                 std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 300; ++c) {
    Rng rng = base.fork(c);
    const double step = rng.uniform(-20.0, 20.0);
    const std::size_t n = 1 + rng.uniform_index(192);
    CVec ref_i(n);
    RVec ref_re(n), ref_im(n);
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      dsp::phasor_ramp(step, n, ref_i.data());
      dsp::phasor_ramp(step, n, ref_re.data(), ref_im.data());
    }
    with_backend([&] {
      CVec got_i(n);
      RVec got_re(n), got_im(n);
      dsp::phasor_ramp(step, n, got_i.data());
      dsp::phasor_ramp(step, n, got_re.data(), got_im.data());
      for (std::size_t i = 0; i < n; ++i) {
        // Unit phasors: natural scale 1.
        audit.compare_tol(got_i[i], ref_i[i], tol_.phasor_ramp, 1.0);
        audit.compare_tol(cplx(got_re[i], got_im[i]),
                          cplx(ref_re[i], ref_im[i]), tol_.phasor_ramp, 1.0);
      }
    });
  }
  audit.finish(10000);
}

TEST_P(KernelBackendSweep, DotKernelsWithinDeclaredTolerance) {
  Rng base(0xB4C4D07ull);
  UlpAudit audit(std::string("cdot+dot_phasor_ramp/") +
                 std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 5000; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 1 + rng.uniform_index(257);
    const double step = rng.uniform(-20.0, 20.0);
    const CVec a = random_cvec(rng, n);
    const CVec b = random_cvec(rng, n);
    double dot_scale = 0.0;
    double ramp_scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot_scale += std::abs(a[i]) * std::abs(b[i]);
      ramp_scale += std::abs(a[i]);  // |phasor| == 1
    }
    cplx ref_dot;
    cplx ref_ramp;
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      ref_dot = dsp::cdot(a.data(), b.data(), n);
      ref_ramp = dsp::dot_phasor_ramp(step, a.data(), n);
    }
    with_backend([&] {
      audit.compare_tol(dsp::cdot(a.data(), b.data(), n), ref_dot, tol_.dot,
                        dot_scale);
      audit.compare_tol(dsp::dot_phasor_ramp(step, a.data(), n), ref_ramp,
                        tol_.dot, ramp_scale);
    });
  }
  audit.finish(10000);
}

TEST_P(KernelBackendSweep, AxpyKernelsWithinDeclaredTolerance) {
  Rng base(0xB4C4A4B1ull);
  UlpAudit audit(std::string("axpy family/") +
                 std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 400; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 1 + rng.uniform_index(128);
    const cplx alpha = rng.complex_normal();
    const double step = rng.uniform(-20.0, 20.0);
    const CVec x = random_cvec(rng, n);
    const CVec y0 = random_cvec(rng, n);
    CVec ref_axpy = y0;
    CVec ref_ramp = y0;
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      dsp::axpy(alpha, x.data(), ref_axpy.data(), n);
      dsp::axpy_phasor_ramp(alpha, step, ref_ramp.data(), n);
    }
    with_backend([&] {
      CVec got_axpy = y0;
      CVec got_ramp = y0;
      dsp::axpy(alpha, x.data(), got_axpy.data(), n);
      dsp::axpy_phasor_ramp(alpha, step, got_ramp.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        audit.compare_tol(got_axpy[i], ref_axpy[i], tol_.axpy,
                          std::abs(y0[i]) + std::abs(alpha) * std::abs(x[i]));
        audit.compare_tol(got_ramp[i], ref_ramp[i], tol_.axpy,
                          std::abs(y0[i]) + std::abs(alpha));
      }
    });
  }
  audit.finish(10000);
}

TEST_P(KernelBackendSweep, DelayPhasorsWithinDeclaredTolerance) {
  Rng base(0xB4C4DE1A7ull);
  UlpAudit audit(std::string("accumulate_delay_phasors/") +
                 std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 300; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 8 + rng.uniform_index(121);
    RVec freqs(n);
    if (rng.bernoulli(0.7)) {
      // Affine grid (the production shape; exercises the fast path).
      const double f0 = rng.uniform(-400e6, 0.0);
      const double df = rng.uniform(1e5, 1e7);
      for (std::size_t k = 0; k < n; ++k) {
        freqs[k] = f0 + static_cast<double>(k) * df;
      }
    } else {
      // Jittered grid: must take the scalar fallback and still pass.
      for (std::size_t k = 0; k < n; ++k) {
        freqs[k] = rng.uniform(-400e6, 400e6);
      }
    }
    const cplx alpha = rng.complex_normal();
    const double delay = rng.uniform(0.0, 500e-9);
    const CVec dst0 = random_cvec(rng, n);
    CVec ref = dst0;
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      dsp::accumulate_delay_phasors(alpha, freqs.data(), delay, ref.data(), n);
    }
    with_backend([&] {
      CVec got = dst0;
      dsp::accumulate_delay_phasors(alpha, freqs.data(), delay, got.data(), n);
      for (std::size_t k = 0; k < n; ++k) {
        audit.compare_tol(got[k], ref[k], tol_.delay_phasors,
                          std::abs(dst0[k]) + std::abs(alpha));
      }
    });
  }
  audit.finish(10000);
}

TEST_P(KernelBackendSweep, BatchedSteeringEvaluatorsWithinTolerance) {
  // The PatternCache batch evaluators reach the backends through the
  // dsp kernels; sweep them end-to-end so a backend bug that only shows
  // through the SoA batch layout is caught here, not in a golden run.
  Rng base(0xB4C457EEull);
  UlpAudit audit(std::string("steering/array-factor batch/") +
                 std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 200; ++c) {
    Rng rng = base.fork(c);
    const Ula ula = random_ula(rng);
    const CVec w = random_cvec(rng, ula.num_elements);
    const std::size_t num_angles = 1 + rng.uniform_index(12);
    RVec phis(num_angles);
    for (double& p : phis) p = random_angle(rng);

    std::vector<CVec> ref_rows(num_angles);
    CVec ref_af;
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      const dsp::CplxBatch ref_batch = array::steering_vector_batch(ula, phis);
      for (std::size_t r = 0; r < num_angles; ++r) {
        ref_rows[r] = ref_batch.row(r);
      }
      ref_af = array::array_factor_batch(ula, w, phis);
    }
    double w_scale = 0.0;
    for (const cplx& v : w) w_scale += std::abs(v);
    with_backend([&] {
      const dsp::CplxBatch batch = array::steering_vector_batch(ula, phis);
      const CVec af = array::array_factor_batch(ula, w, phis);
      for (std::size_t r = 0; r < num_angles; ++r) {
        for (std::size_t e = 0; e < ula.num_elements; ++e) {
          audit.compare_tol(batch.at(r, e), ref_rows[r][e], tol_.phasor_ramp,
                            1.0);
        }
        audit.compare_tol(af[r], ref_af[r], tol_.dot, w_scale);
      }
    });
  }
  audit.finish(10000);
}

// The transcendental kernels over their production input ranges: uniforms
// in [0, 1) (plus exact zeros), CFO phases in [0, 2 pi) with SFO slopes up
// to several rad/subcarrier, and sinc pulses across the CIR window.
TEST_P(KernelBackendSweep, BoxMullerWithinDeclaredTolerance) {
  Rng base(0xB0C5B4C4ull);
  UlpAudit audit(std::string("box_muller/") +
                 std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 400; ++c) {
    Rng rng = base.fork(c);
    const std::size_t pairs = rng.uniform_index(64);
    RVec u(2 * pairs);
    for (double& x : u) x = rng.uniform();
    if (pairs > 0 && rng.bernoulli(0.1)) u[2 * rng.uniform_index(pairs)] = 0.0;
    RVec ref(2 * pairs);
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      dsp::box_muller(u.data(), pairs, ref.data());
    }
    with_backend([&] {
      RVec got = u;  // in place, as Rng::fill_normal calls it
      dsp::box_muller(got.data(), pairs, got.data());
      for (std::size_t p = 0; p < pairs; ++p) {
        const double r = std::hypot(ref[2 * p], ref[2 * p + 1]);
        audit.compare_tol(got[2 * p], ref[2 * p], tol_.box_muller, r);
        audit.compare_tol(got[2 * p + 1], ref[2 * p + 1], tol_.box_muller, r);
      }
    });
  }
  audit.finish(10000);
}

TEST_P(KernelBackendSweep, ImpairCsiWithinDeclaredTolerance) {
  Rng base(0x1A9AB4C4ull);
  UlpAudit audit(std::string("impair_csi/") +
                 std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 300; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = rng.uniform_index(130);
    const double scale = std::pow(10.0, rng.uniform(-8.0, 0.0));
    CVec truth = random_cvec(rng, n);
    CVec noise = random_cvec(rng, n);
    for (std::size_t k = 0; k < n; ++k) {
      truth[k] *= scale;
      noise[k] *= 0.1 * scale;
    }
    const double phase0 = rng.uniform(0.0, 2.0 * kPi);
    const double slope =
        rng.bernoulli(0.8) ? rng.normal(0.0, 0.01) : rng.uniform(-3.0, 3.0);
    CVec ref(n);
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      dsp::impair_csi(truth.data(), noise.data(), phase0, slope, n,
                      ref.data());
    }
    with_backend([&] {
      CVec got = noise;  // in place over the noise, as the estimator does
      dsp::impair_csi(truth.data(), got.data(), phase0, slope, n, got.data());
      for (std::size_t k = 0; k < n; ++k) {
        const double mag = std::abs(truth[k] + noise[k]);
        audit.compare_tol(got[k].real(), ref[k].real(), tol_.impair_csi, mag);
        audit.compare_tol(got[k].imag(), ref[k].imag(), tol_.impair_csi, mag);
      }
    });
  }
  audit.finish(10000);
}

TEST_P(KernelBackendSweep, SincColumnWithinDeclaredTolerance) {
  Rng base(0x51C0B4C4ull);
  UlpAudit audit(std::string("sinc_column/") +
                 std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 400; ++c) {
    Rng rng = base.fork(c);
    const double bw = rng.uniform(50e6, 2e9);
    const double ts = 1.0 / bw;
    // Every 4th column sits on a tap, so its centre tap hits sinc(0).
    const double tau = (c % 4 == 0)
                           ? static_cast<double>(rng.uniform_index(60)) * ts
                           : rng.uniform(-5.0, 60.0) * ts;
    const std::size_t n = rng.uniform_index(64);
    RVec ref(n);
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      dsp::sinc_column(ts, bw, tau, n, ref.data());
    }
    with_backend([&] {
      RVec got(n);
      dsp::sinc_column(ts, bw, tau, n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        audit.compare_tol(got[i], ref[i], tol_.sinc_column, 1.0);
      }
    });
  }
  audit.finish(10000);
}

// Inputs outside the production ranges: empty and odd lengths, u1 == 0,
// taps within 1e-12 of the pulse centre, huge finite arguments and
// NaN/Inf. Non-finite reference results must come out identically
// (NaN where the scalar loop gives NaN, the same infinity); finite ones
// within the declared tolerance.
class EdgeAudit {
 public:
  EdgeAudit(UlpAudit& audit, const dsp::Tolerance& tol)
      : audit_(audit), tol_(tol) {}
  void check(double got, double ref, double scale) {
    if (std::isnan(ref)) {
      EXPECT_TRUE(std::isnan(got)) << "got " << got << " for a NaN reference";
    } else if (std::isinf(ref)) {
      EXPECT_EQ(got, ref);
    } else {
      audit_.compare_tol(got, ref, tol_, std::isfinite(scale) ? scale : 1.0);
    }
  }

 private:
  UlpAudit& audit_;
  dsp::Tolerance tol_;
};

TEST_P(KernelBackendSweep, TranscendentalEdgeCasesFollowTheScalarLoops) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::string name(dsp::backend_name(GetParam()));
  const std::size_t lengths[] = {0, 1, 2, 3, 5, 6, 7, 9, 13};

  // box_muller: every (u1, u2) combination below as one pair stream.
  const double u1s[] = {0.0,   -0.0,  0x1.0p-53, 1e-300, 4.9e-324, 0.5,
                        1.0,   -1.0,  1e300,     kNan,   kInf,     -kInf};
  const double u2s[] = {0.0, 0.25, 0.5, 0.999, 1e12, kNan, kInf, -kInf};
  RVec u;
  for (double a : u1s) {
    for (double b : u2s) {
      u.push_back(a);
      u.push_back(b);
    }
  }
  UlpAudit bm_audit("box_muller edges/" + name);
  EdgeAudit bm(bm_audit, tol_.box_muller);
  for (std::size_t len : lengths) {
    for (std::size_t start = 0; start + len <= u.size() / 2; start += 7) {
      RVec ref(2 * len);
      RVec got(2 * len);
      {
        dsp::ScopedBackend scalar(dsp::Backend::kScalar);
        dsp::box_muller(u.data() + 2 * start, len, ref.data());
      }
      with_backend(
          [&] { dsp::box_muller(u.data() + 2 * start, len, got.data()); });
      for (std::size_t p = 0; p < len; ++p) {
        const double r = std::hypot(ref[2 * p], ref[2 * p + 1]);
        bm.check(got[2 * p], ref[2 * p], r);
        bm.check(got[2 * p + 1], ref[2 * p + 1], r);
      }
    }
  }
  bm_audit.finish(0);

  // impair_csi: special truth/noise entries, non-finite and huge phases.
  // {Inf, NaN} rotates to an infinity through operator*'s Annex G
  // recovery, where the plain formula gives NaN.
  const CVec truth = {{1.0, -2.0},  {kNan, 0.0}, {kInf, kNan},  {kInf, 1.0},
                      {0.0, 0.0},   {3.0, 4.0},  {-kInf, kInf}, {1e300, 1e300},
                      {2.0, -1.0},  {0.0, kNan}, {1e-300, 0.0}, {-1.0, 0.25},
                      {0.75, -0.5}};
  const CVec noise = {{0.1, 0.1},   {0.0, 0.0},  {kInf, 0.0}, {0.0, 0.0},
                      {-0.0, -0.0}, {0.2, -0.1}, {0.0, 0.0},  {1e300, 1e300},
                      {0.0, 0.0},   {0.1, 0.0},  {0.0, 0.0},  {0.3, 0.3},
                      {-0.2, 0.1}};
  const double phases[][2] = {{0.3, 0.01}, {kNan, 0.0}, {0.0, kInf},
                              {1e9, 0.0},  {2.0, 1e6},  {-kInf, 0.0}};
  UlpAudit csi_audit("impair_csi edges/" + name);
  EdgeAudit csi(csi_audit, tol_.impair_csi);
  for (std::size_t len : lengths) {
    for (const auto& ph : phases) {
      CVec ref(len);
      CVec got(len);
      {
        dsp::ScopedBackend scalar(dsp::Backend::kScalar);
        dsp::impair_csi(truth.data(), noise.data(), ph[0], ph[1], len,
                        ref.data());
      }
      with_backend([&] {
        dsp::impair_csi(truth.data(), noise.data(), ph[0], ph[1], len,
                        got.data());
      });
      for (std::size_t k = 0; k < len; ++k) {
        const double mag = std::abs(truth[k] + noise[k]);
        csi.check(got[k].real(), ref[k].real(), mag);
        csi.check(got[k].imag(), ref[k].imag(), mag);
      }
    }
  }
  csi_audit.finish(0);

  // sinc_column: centre taps (|x| < 1e-12), huge and non-finite delays.
  const double bw = 400e6;
  const double ts = 1.0 / bw;
  const double taus[] = {0.0,      3.0 * ts,  3.0 * ts + 1e-13 * ts,
                         -2.5 * ts, 1e6 * ts, 1e12 * ts,
                         kNan,      kInf,     -kInf};
  UlpAudit sinc_audit("sinc_column edges/" + name);
  EdgeAudit sinc(sinc_audit, tol_.sinc_column);
  for (std::size_t len : lengths) {
    for (double tau : taus) {
      RVec ref(len);
      RVec got(len);
      {
        dsp::ScopedBackend scalar(dsp::Backend::kScalar);
        dsp::sinc_column(ts, bw, tau, len, ref.data());
      }
      with_backend([&] { dsp::sinc_column(ts, bw, tau, len, got.data()); });
      for (std::size_t i = 0; i < len; ++i) sinc.check(got[i], ref[i], 1.0);
    }
  }
  sinc_audit.finish(0);
  // The centre tap is exactly 1 on every backend.
  RVec centre(8);
  with_backend(
      [&] { dsp::sinc_column(ts, bw, 3.0 * ts + 1e-13 * ts, 8, centre.data()); });
  EXPECT_EQ(centre[3], 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllCompiled, KernelBackendSweep,
    ::testing::ValuesIn(dsp::compiled_backends()),
    [](const ::testing::TestParamInfo<dsp::Backend>& info) {
      return std::string(dsp::backend_name(info.param));
    });

}  // namespace
}  // namespace mmr
