// Property-based kernel/arena invariants (>= 1000 Rng::fork cases each),
// swept across every compiled-and-executable kernel backend:
//   * phasor ramps are unit-modulus per element on every backend,
//   * axpy is linear in alpha within the declared backend tolerance,
//   * Arena reset/reuse is address-stable, and a trial rerun on a reset
//     workspace -- or with no workspace at all -- is bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/kernels.h"
#include "sim/engine.h"
#include "sim/runner.h"
#include "sim/workspace.h"
#include "sim/world.h"
#include "tests/common/diff_harness.h"

namespace mmr {
namespace {

constexpr std::size_t kCases = 1200;
constexpr std::uint64_t kBaseSeed = 777000111;

CVec random_cvec(Rng& rng, std::size_t n) {
  CVec v(n);
  for (cplx& c : v) c = cplx(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
  return v;
}

TEST(KernelProps, PhasorRampIsUnitModulusOnEveryBackend) {
  testing::for_each_supported_backend([](dsp::Backend b) {
    dsp::ScopedBackend scoped(b);
    ASSERT_TRUE(scoped.ok());
    const Rng base(kBaseSeed);
    for (std::size_t i = 0; i < kCases; ++i) {
      Rng rng = base.fork(i);
      const std::size_t n = 1 + rng.uniform_index(160);
      const double step = rng.uniform(-12.0, 12.0);
      CVec ramp(n);
      dsp::phasor_ramp(step, n, ramp.data());
      for (std::size_t k = 0; k < n; ++k) {
        // cos^2+sin^2 rounds to 1 within ~2 eps; the anchor+delta fast
        // path multiplies two unit phasors, which stays unit to ~4 eps.
        ASSERT_NEAR(std::norm(ramp[k]), 1.0, 1e-14)
            << dsp::backend_name(b) << " case " << i << " element " << k;
      }
    }
  });
}

TEST(KernelProps, AxpyIsLinearInAlphaWithinBackendTolerance) {
  testing::for_each_supported_backend([](dsp::Backend b) {
    dsp::ScopedBackend scoped(b);
    ASSERT_TRUE(scoped.ok());
    const dsp::Tolerance tol = dsp::tolerances(b).axpy;
    mmr::testing::UlpAudit audit(std::string("axpy linearity on ") +
                                 std::string(dsp::backend_name(b)));
    const Rng base(kBaseSeed + 3);
    for (std::size_t i = 0; i < kCases; ++i) {
      Rng rng = base.fork(i);
      const std::size_t n = rng.uniform_index(96);
      const cplx alpha(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
      const cplx beta(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
      const CVec x = random_cvec(rng, n);
      const CVec y0 = random_cvec(rng, n);

      CVec two_step = y0;
      dsp::axpy(alpha, x.data(), two_step.data(), n);
      dsp::axpy(beta, x.data(), two_step.data(), n);
      CVec one_step = y0;
      dsp::axpy(alpha + beta, x.data(), one_step.data(), n);

      for (std::size_t k = 0; k < n; ++k) {
        // (y + ax) + bx vs y + (a+b)x reassociates, so this is a
        // tolerance property, not bit-exactness; 4x the declared scalar
        // axpy budget comfortably covers the extra rounding step.
        const double scale =
            std::abs(y0[k]) + (std::abs(alpha) + std::abs(beta)) *
                                  std::abs(x[k]);
        audit.compare_tol(two_step[k], one_step[k],
                          dsp::Tolerance{4 * tol.max_ulp + 64,
                                         4.0 * tol.abs_tol + 4e-15},
                          scale);
      }
    }
    audit.finish(1000);
  });
}

TEST(ArenaProps, ResetReuseIsAddressStableAndChunkStable) {
  const Rng base(kBaseSeed + 4);
  for (std::size_t i = 0; i < 1000; ++i) {
    Rng rng = base.fork(i);
    Arena arena(128);
    const std::size_t count = 1 + rng.uniform_index(40);
    std::vector<std::size_t> sizes;
    std::vector<std::size_t> aligns;
    std::vector<void*> first;
    for (std::size_t k = 0; k < count; ++k) {
      sizes.push_back(1 + rng.uniform_index(600));
      aligns.push_back(std::size_t{1} << rng.uniform_index(6));  // 1..32
      first.push_back(arena.allocate(sizes[k], aligns[k]));
    }
    const std::size_t chunks = arena.chunk_count();
    const std::size_t used = arena.bytes_in_use();
    arena.reset();
    ASSERT_EQ(arena.bytes_in_use(), 0u) << "case " << i;
    for (std::size_t k = 0; k < count; ++k) {
      // Identical allocation sequence after reset() returns identical
      // addresses from the retained chunks: the no-new-chunks guarantee
      // the zero-alloc trial loop rests on.
      ASSERT_EQ(arena.allocate(sizes[k], aligns[k]), first[k])
          << "case " << i << " alloc " << k;
    }
    ASSERT_EQ(arena.chunk_count(), chunks) << "case " << i;
    ASSERT_EQ(arena.bytes_in_use(), used) << "case " << i;
    ASSERT_EQ(arena.high_water(), used) << "case " << i;
  }
}

// A full trial rerun on the SAME workspace after reset(), and a trial run
// with NO workspace at all, must both be bit-identical to the first run:
// the arena is a pure performance mechanism with zero observable effect.
TEST(ArenaProps, TrialRerunOnResetWorkspaceIsBitIdentical) {
  sim::ScenarioSpec scenario;
  scenario.name = "indoor_sparse";
  scenario.config.seed = 13;
  scenario.blockers = {{0.5, 1.0, 30.0}};
  sim::ControllerSpec ctrl_spec;
  ctrl_spec.name = "mmreliable";
  sim::RunConfig rc;
  rc.duration_s = 0.25;  // 100 ticks: enough to cross the blocker onset

  auto run_once = [&](sim::TrialWorkspace* ws) {
    sim::LinkWorld world = sim::ScenarioRegistry::instance().make(scenario);
    if (ws != nullptr) world.bind_workspace(ws);
    const auto ctrl = sim::ControllerRegistry::instance().make(
        world, scenario.config, ctrl_spec);
    return sim::run_experiment(world, *ctrl, rc);
  };

  sim::TrialWorkspace ws;
  const sim::RunResult first = run_once(&ws);
  ws.reset();
  const sim::RunResult rerun = run_once(&ws);
  const sim::RunResult bare = run_once(nullptr);

  ASSERT_FALSE(first.samples.empty());
  ASSERT_EQ(rerun.samples.size(), first.samples.size());
  ASSERT_EQ(bare.samples.size(), first.samples.size());
  for (std::size_t i = 0; i < first.samples.size(); ++i) {
    const auto& a = first.samples[i];
    ASSERT_EQ(rerun.samples[i].snr_db, a.snr_db) << "tick " << i;
    ASSERT_EQ(rerun.samples[i].throughput_bps, a.throughput_bps)
        << "tick " << i;
    ASSERT_EQ(rerun.samples[i].available, a.available) << "tick " << i;
    ASSERT_EQ(bare.samples[i].snr_db, a.snr_db) << "no-workspace tick " << i;
    ASSERT_EQ(bare.samples[i].throughput_bps, a.throughput_bps)
        << "no-workspace tick " << i;
    ASSERT_EQ(bare.samples[i].available, a.available)
        << "no-workspace tick " << i;
  }
}

}  // namespace
}  // namespace mmr
