// Tick-coherent CSI synthesis: a workspace-bound LinkWorld fills one
// delay-phasor table per tick (channel::fill_delay_phasors) into the
// workspace's shared slot and sums alpha_p * phasor_p for every CSI probe
// and score of the tick. These tests pin that cache at 0 ULP against
// unbound worlds, which build a fresh table for every synthesis, on the
// ACTIVE backend -- the kernel_tests binary is re-run per backend by the
// kernels_forced_* registrations, so each case covers scalar, portable
// and the architecture's SIMD backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "array/geometry.h"
#include "channel/environment.h"
#include "channel/mobility.h"
#include "channel/wideband.h"
#include "common/angles.h"
#include "common/constants.h"
#include "common/rng.h"
#include "dsp/kernels.h"
#include "sim/scenario.h"
#include "sim/workspace.h"
#include "sim/world.h"

namespace mmr {
namespace {

bool bitwise_equal(const CVec& a, const CVec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0);
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The conference room with a walking UE and a blocker crossing the LOS
/// mid-run, so path counts and delays change from tick to tick. `seed`
/// drives the probe noise; `num_subcarriers` sizes the grid.
sim::LinkWorld make_world(std::size_t num_subcarriers, std::uint64_t seed,
                          channel::Vec2 ue_start = {6.5, 5.0}) {
  const channel::Pose tx{sim::kIndoorGnbPosition, 0.0};
  const channel::Pose ue0{ue_start, kPi};
  auto traj = std::make_shared<channel::TranslateAndRotate>(
      ue0, channel::Vec2{-0.8, 1.1}, 0.3);
  sim::WorldConfig wc;
  wc.spec = {kCarrier28GHz, kBandwidth400MHz, num_subcarriers};
  sim::LinkWorld world(channel::Environment::indoor_conference_room(), tx,
                       std::move(traj), wc, Rng(seed));
  world.add_blocker(
      sim::crossing_blocker(tx.position, ue0.position, 0.02, 1.0, 30.0));
  return world;
}

/// Everything one tick of a link observes through the world: a 16-beam
/// CSI probe sweep, a CIR probe, and the true SNR. Probes draw from the
/// world's Rng, so two worlds built from the same seed stay in lockstep
/// only if every value matches.
struct TickRecord {
  std::vector<CVec> csi;
  CVec cir;
  double snr_db = 0.0;
};

std::vector<CVec> beam_sweep(const sim::LinkWorld& world) {
  std::vector<CVec> beams;
  for (std::size_t b = 0; b < 16; ++b) {
    const double angle = -0.9 + 0.12 * static_cast<double>(b);
    beams.push_back(array::single_beam_weights(world.config().tx_ula, angle));
  }
  return beams;
}

void probe_tick(sim::LinkWorld& world, TickRecord& rec) {
  const core::LinkProbeInterface link = world.probe_interface();
  const std::vector<CVec> beams = beam_sweep(world);
  for (const CVec& w : beams) rec.csi.push_back(link.csi(w));
  rec.cir = link.cir(beams[5], 24);
}

void score_tick(const sim::LinkWorld& world, TickRecord& rec) {
  const std::vector<CVec> beams = beam_sweep(world);
  rec.snr_db = world.true_snr_db(beams[7]);
}

void expect_same_tick(const TickRecord& cached, const TickRecord& direct,
                      const std::string& where) {
  ASSERT_EQ(cached.csi.size(), direct.csi.size()) << where;
  for (std::size_t i = 0; i < cached.csi.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(cached.csi[i], direct.csi[i]))
        << where << " csi probe " << i;
  }
  EXPECT_TRUE(bitwise_equal(cached.cir, direct.cir)) << where << " cir";
  EXPECT_TRUE(bitwise_equal(cached.snr_db, direct.snr_db))
      << where << " snr " << cached.snr_db << " vs " << direct.snr_db;
}

constexpr std::size_t kTicks = 24;
constexpr double kTickS = 2.5e-3;

// Grid sizes straddle the fast backends' switch to the anchor+delta ramp
// at 2 * kRampBlock = 16 and its 8-element blocks: 1 and 8 and 15 run the
// scalar loop everywhere, 16 and 64 whole blocks, 100 whole blocks plus a
// 4-element tail.
TEST(TickPhasors, BoundWorldMatchesUnboundBitForBit) {
  for (std::size_t n : {1u, 8u, 15u, 16u, 64u, 100u}) {
    sim::LinkWorld cached = make_world(n, 41);
    sim::LinkWorld direct = make_world(n, 41);
    sim::TrialWorkspace ws;
    cached.bind_workspace(&ws);
    for (std::size_t i = 0; i < kTicks; ++i) {
      const double t = static_cast<double>(i) * kTickS;
      cached.set_time(t);
      direct.set_time(t);
      ASSERT_EQ(cached.paths().size(), direct.paths().size());
      TickRecord a;
      TickRecord b;
      probe_tick(cached, a);
      score_tick(cached, a);
      probe_tick(direct, b);
      score_tick(direct, b);
      expect_same_tick(a, b,
                       "n=" + std::to_string(n) + " tick " +
                           std::to_string(i));
    }
  }
}

// A world's grid is always affine, so the non-affine grid is exercised at
// the channel layer. On it (as on any grid shorter than 16) every backend
// takes the scalar loop, so one table reused across beams must reproduce
// the per-path loop dst[k] += alpha * e^{j ang} to 0 ULP.
TEST(TickPhasors, TableReuseMatchesPerPathLoopOnNonAffineGrid) {
  const sim::LinkWorld world = make_world(64, 7);
  const std::vector<channel::Path>& paths = world.paths();
  ASSERT_GE(paths.size(), 2u);
  const array::Ula& ula = world.config().tx_ula;
  const channel::RxFrontend rx = channel::RxFrontend::omni();
  Rng rng(99);
  for (std::size_t n : {15u, 64u, 100u}) {
    RVec jittered(n);
    for (std::size_t k = 0; k < n; ++k) {
      jittered[k] = (static_cast<double>(k) - 0.5 * static_cast<double>(n)) *
                        6.25e6 +
                    rng.uniform(-2e6, 2e6);
    }
    const dsp::FreqGrid grid = dsp::make_freq_grid(jittered.data(), n);
    ASSERT_FALSE(grid.affine) << "n=" << n;
    CVec table(paths.size() * n);
    channel::fill_delay_phasors(paths, grid, table.data());

    double t0 = paths.front().delay_s;
    for (const channel::Path& p : paths) t0 = std::min(t0, p.delay_s);
    for (const CVec& w : beam_sweep(world)) {
      CVec got(n);
      channel::effective_csi_into(paths, ula, w, rx, grid, table.data(),
                                  got.data());
      CVec ref(n, cplx{});
      for (const channel::Path& p : paths) {
        const cplx alpha = channel::path_amplitude(p, ula, w, rx);
        for (std::size_t k = 0; k < n; ++k) {
          const double ang = -2.0 * kPi * jittered[k] * (p.delay_s - t0);
          ref[k] += alpha * cplx(std::cos(ang), std::sin(ang));
        }
      }
      EXPECT_TRUE(bitwise_equal(got, ref)) << "non-affine n=" << n;
    }
  }
}

// The shared slot's key. Two worlds on one workspace, driven in a
// network's order -- every link advances (set_time, then its probes)
// before any link is scored -- so each score finds the OTHER world's
// table in the slot. A reset() mid-run empties the slot under worlds
// that keep their tick ids. Every CSI, CIR and SNR must equal two
// unbound worlds bit for bit.
TEST(TickPhasors, SharedSlotNeverServesAnotherWorldsTable) {
  sim::LinkWorld a = make_world(64, 5);
  sim::LinkWorld b = make_world(64, 6, {4.0, 7.5});
  sim::LinkWorld a_ref = make_world(64, 5);
  sim::LinkWorld b_ref = make_world(64, 6, {4.0, 7.5});
  sim::TrialWorkspace ws;
  a.bind_workspace(&ws);
  b.bind_workspace(&ws);

  for (std::size_t i = 0; i < kTicks; ++i) {
    const double t = static_cast<double>(i) * kTickS;
    const std::string where = "tick " + std::to_string(i);
    if (i == kTicks / 2) ws.reset();
    TickRecord ra, rb, ra_ref, rb_ref;
    // Advance pass.
    a.set_time(t);
    a_ref.set_time(t);
    probe_tick(a, ra);
    probe_tick(a_ref, ra_ref);
    b.set_time(t);
    b_ref.set_time(t);
    probe_tick(b, rb);
    probe_tick(b_ref, rb_ref);
    // Scoring pass.
    score_tick(a, ra);
    score_tick(a_ref, ra_ref);
    score_tick(b, rb);
    score_tick(b_ref, rb_ref);
    expect_same_tick(ra, ra_ref, "world a " + where);
    expect_same_tick(rb, rb_ref, "world b " + where);
  }

  // reset() with no set_time after it: both worlds still hold their
  // pre-reset ids, the slot is empty, and they must refill, not misread.
  ws.reset();
  TickRecord ra, rb, ra_ref, rb_ref;
  score_tick(b, rb);
  score_tick(b_ref, rb_ref);
  score_tick(a, ra);
  score_tick(a_ref, ra_ref);
  expect_same_tick(ra, ra_ref, "world a after a bare reset");
  expect_same_tick(rb, rb_ref, "world b after a bare reset");
}

// Tick ids are unique per workspace, not across workspaces: two fresh
// workspaces hand out the same ids. A world moved to a workspace whose
// slot already holds another world's table under the id the mover
// carries must take a fresh id on bind and refill.
TEST(TickPhasors, RebindToAnotherWorkspaceTakesAFreshTickId) {
  sim::LinkWorld mover = make_world(64, 11);
  sim::LinkWorld mover_ref = make_world(64, 11);
  sim::LinkWorld resident = make_world(64, 12, {4.0, 7.5});
  sim::TrialWorkspace ws1, ws2;
  mover.bind_workspace(&ws1);
  resident.bind_workspace(&ws2);
  TickRecord warm, warm_ref, resident_rec;
  score_tick(mover, warm);
  score_tick(mover_ref, warm_ref);
  expect_same_tick(warm, warm_ref, "before the move");
  score_tick(resident, resident_rec);  // ws2's slot: resident's table

  mover.bind_workspace(&ws2);
  TickRecord moved, moved_ref;
  probe_tick(mover, moved);
  probe_tick(mover_ref, moved_ref);
  score_tick(mover, moved);
  score_tick(mover_ref, moved_ref);
  expect_same_tick(moved, moved_ref, "after the move");
}

}  // namespace
}  // namespace mmr
