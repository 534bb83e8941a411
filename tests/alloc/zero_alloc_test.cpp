// Allocation audit of the trial hot path (PR-6 tentpole): the engine's
// scoring loop -- world.set_time(t) + world.true_snr_db(weights) + sample
// append -- must perform ZERO heap allocations in steady state once a
// TrialWorkspace is bound. These tests prove it with a counting global
// operator new (tests/common/alloc_guard.h) on the paper's Fig. 16 and
// Fig. 18 blockage scenarios, and pin a total-allocation budget on the
// full trial (controller included) so an accidental per-tick allocation
// anywhere in the stack fails loudly with the offending count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <vector>

#include "array/geometry.h"

#include "common/types.h"
#include "core/controller_base.h"
#include "core/link_state.h"
#include "core/metrics.h"
#include "net/interference.h"
#include "phy/mcs.h"
#include "sim/engine.h"
#include "sim/runner.h"
#include "sim/streaming.h"
#include "sim/workspace.h"
#include "sim/world.h"
#include "tests/common/alloc_guard.h"

namespace {

using namespace mmr;

// The paper's Fig. 16 blockage trial: sparse room, walker crossing the
// LOS at t = 0.5 s (bench/bench_fig16_blockage.cpp, rep 0).
sim::ScenarioSpec fig16_scenario() {
  sim::ScenarioSpec s;
  s.name = "indoor_sparse";
  s.config.seed = 13;
  s.blockers = {{0.5, 1.0, 30.0}};
  return s;
}

// Fig. 18a's hardest static trial: tight link margin, two crossing
// blockers (bench/bench_fig18_endtoend.cpp).
sim::ScenarioSpec fig18_scenario() {
  sim::ScenarioSpec s;
  s.name = "indoor_sparse";
  s.config.seed = 31;
  s.config.tx_power_dbm = 14.0;
  s.blockers = {{0.4, 1.0, 30.0}, {0.75, 1.2, 30.0}};
  return s;
}

constexpr double kTickS = 2.5e-3;
constexpr std::size_t kNumTicks = 400;  // 1 s trial at the CSI-RS cadence

// Measured: the full Fig. 16 mmReliable trial performs 6 665
// allocations. They come from the controller's probe path (one per CSI
// probe, its result; the CIR probe's result and pulse scratch) and from
// each super-resolution call's two scratch buffers and result vectors
// (no candidate solve allocates) -- legitimately outside the zero-alloc
// scope; the SCORING loop's zero is pinned separately above.
// The budget adds ~20% headroom: loose enough for libstdc++ drift, tight
// enough to catch any systematic per-tick regression: one per-candidate
// temporary back in the superres search (~19 per call, thousands per
// trial), the engine losing the workspace binding, or a new temporary
// inside the probe loop.
constexpr std::size_t kFullTrialAllocationBudget = 8'000;

/// Run the engine's scoring statements (sim/runner.cpp tick loop minus
/// the controller step, whose probe path is out of the zero-alloc scope)
/// over the full trial duration and return the allocation count. The
/// warm-up pass covers the same time range first so every capacity --
/// path list, arena chunks, sample vector -- has plateaued.
std::size_t scoring_loop_allocations(const sim::ScenarioSpec& scenario,
                                     bool bind_workspace) {
  sim::LinkWorld world = sim::ScenarioRegistry::instance().make(scenario);
  sim::TrialWorkspace workspace;
  if (bind_workspace) world.bind_workspace(&workspace);

  const phy::McsTable& mcs = phy::McsTable::nr();
  const double bandwidth = world.config().spec.bandwidth_hz;
  const CVec weights(world.config().tx_ula.num_elements,
                     cplx{1.0 / 8.0, 0.0});
  std::vector<core::LinkSample> samples;
  samples.reserve(kNumTicks);

  // Warm-up: full time range, so the blocked/unblocked path-count range
  // is seen before the audit.
  for (std::size_t i = 0; i < kNumTicks; ++i) {
    world.set_time(static_cast<double>(i) * kTickS);
    (void)world.true_snr_db(weights);
  }

  samples.clear();
  mmr::testing::AllocationCounter audit;
  for (std::size_t i = 0; i < kNumTicks; ++i) {
    const double t = static_cast<double>(i) * kTickS;
    world.set_time(t);
    core::LinkSample sample;
    sample.t_s = t;
    sample.available = true;
    sample.snr_db = world.true_snr_db(weights);
    sample.throughput_bps = mcs.throughput_bps(sample.snr_db, bandwidth, 0.005);
    samples.push_back(sample);
  }
  return audit.delta();
}

class ZeroAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!mmr::testing::alloc_guard_active()) {
      GTEST_SKIP() << "alloc guard compiled out under sanitizers";
    }
  }
};

// The harness itself must be live, or every zero-delta below is
// vacuously true. Direct calls to ::operator new are used because the
// C++14 allocation-elision rule lets GCC remove new-EXPRESSIONS entirely
// (even with a replaced operator new); explicit calls are ordinary
// function calls and cannot be elided.
TEST_F(ZeroAllocTest, HarnessCountsAllocations) {
  mmr::testing::AllocationCounter audit;
  for (int i = 0; i < 16; ++i) {
    void* p = ::operator new(64);
    ::operator delete(p);
  }
  EXPECT_GE(audit.delta(), 16u) << "counting operator new is not linked in";
}

TEST_F(ZeroAllocTest, Fig16ScoringLoopIsAllocationFree) {
  EXPECT_EQ(scoring_loop_allocations(fig16_scenario(), true), 0u)
      << "the Fig. 16 trial scoring loop allocated on the hot path";
}

TEST_F(ZeroAllocTest, Fig18ScoringLoopIsAllocationFree) {
  EXPECT_EQ(scoring_loop_allocations(fig18_scenario(), true), 0u)
      << "the Fig. 18 trial scoring loop allocated on the hot path";
}

// The workspace is what buys the zero: without it the per-tick CSI and
// frequency-grid temporaries come back. This pins the mechanism (and
// keeps the audit honest -- the loop above is genuinely allocation-prone).
TEST_F(ZeroAllocTest, UnboundWorldStillAllocatesPerTick) {
  EXPECT_GE(scoring_loop_allocations(fig16_scenario(), false), kNumTicks)
      << "expected the no-workspace path to allocate every tick";
}

/// The network layer's per-tick SCORING pass (src/net/network.cpp run()
/// tick loop minus the controller advance, whose probe path is out of
/// the zero-alloc scope): true-channel SNR with a bound workspace, the
/// scalar interferer-gain fold into SINR, the sample append into a
/// reserved vector, and the link state machine's poll/apply ledger.
std::size_t network_scoring_allocations(bool bind_workspace) {
  sim::LinkWorld victim =
      sim::ScenarioRegistry::instance().make(fig16_scenario());
  sim::LinkWorld other =
      sim::ScenarioRegistry::instance().make(fig18_scenario());
  sim::TrialWorkspace victim_ws, other_ws;
  if (bind_workspace) {
    victim.bind_workspace(&victim_ws);
    other.bind_workspace(&other_ws);
  }

  const phy::McsTable& mcs = phy::McsTable::nr();
  const double bandwidth = victim.config().spec.bandwidth_hz;
  const double carrier_hz = victim.config().spec.carrier_hz;
  const double noise_ref = victim.power_for_snr(0.0);
  const CVec weights(victim.config().tx_ula.num_elements,
                     cplx{1.0 / 8.0, 0.0});
  const CVec other_weights(other.config().tx_ula.num_elements,
                           cplx{1.0 / 8.0, 0.0});
  const array::Ula other_ula = other.config().tx_ula;
  core::LinkStateMachine sm;
  sm.apply(0.0, core::LinkEvent::kAcquire);
  sm.apply(0.0, core::LinkEvent::kAcquisitionSuccess);
  std::vector<core::LinkSample> samples;
  samples.reserve(kNumTicks);

  // Warm-up over the full time range (blocked and unblocked regimes).
  for (std::size_t i = 0; i < kNumTicks; ++i) {
    const double t = static_cast<double>(i) * kTickS;
    victim.set_time(t);
    other.set_time(t);
    (void)victim.true_snr_db(weights);
    (void)other.true_snr_db(other_weights);
  }

  samples.clear();
  mmr::testing::AllocationCounter audit;
  for (std::size_t i = 0; i < kNumTicks; ++i) {
    const double t = static_cast<double>(i) * kTickS;
    victim.set_time(t);
    other.set_time(t);
    const double snr = victim.true_snr_db(weights);
    const double gain =
        net::interferer_gain(other_ula, other_weights,
                             0.3 * std::sin(t), 25.0, carrier_hz);
    const double sinr = net::sinr_db(snr, gain / noise_ref);
    core::LinkSample sample;
    sample.t_s = t;
    sample.available = true;
    sample.snr_db = sinr;
    sample.throughput_bps = mcs.throughput_bps(sinr, bandwidth, 0.005);
    samples.push_back(sample);
    (void)sm.poll(t);
    sm.apply(t, sinr < 6.0 ? core::LinkEvent::kErrorBurst
                           : core::LinkEvent::kRecovered);
  }
  (void)sm.time_in(core::LinkState::kUp);
  return audit.delta();
}

// A CSI probe through a workspace-bound world reuses the cached
// subcarrier grid and CSI scratch and draws its noise into the result, so
// its only allocation is the returned estimate.
TEST_F(ZeroAllocTest, CsiProbeAllocatesOnlyItsResult) {
  sim::LinkWorld world =
      sim::ScenarioRegistry::instance().make(fig16_scenario());
  sim::TrialWorkspace workspace;
  world.bind_workspace(&workspace);
  const core::LinkProbeInterface link = world.probe_interface();
  const CVec weights(world.config().tx_ula.num_elements,
                     cplx{1.0 / 8.0, 0.0});
  (void)link.csi(weights);  // warm-up: fills the grid and the scratch
  for (std::size_t i = 0; i < kNumTicks; i += 40) {
    world.set_time(static_cast<double>(i) * kTickS);
    mmr::testing::AllocationCounter audit;
    const CVec csi = link.csi(weights);
    EXPECT_EQ(audit.delta(), 1u) << "CSI probe at tick " << i;
    EXPECT_EQ(csi.size(), world.config().spec.num_subcarriers);
  }
}

// Full-trial regression: the complete run_experiment (controller,
// probing, estimator -- everything) under a total-allocation budget.
// The controller's probe path legitimately allocates; this budget pins
// today's total with headroom and fails printing the offending count.
TEST_F(ZeroAllocTest, FullTrialAllocationBudgetRegression) {
  sim::LinkWorld world =
      sim::ScenarioRegistry::instance().make(fig16_scenario());
  sim::TrialWorkspace workspace;
  world.bind_workspace(&workspace);
  sim::ControllerSpec ctrl_spec;
  ctrl_spec.name = "mmreliable";
  const auto ctrl = sim::ControllerRegistry::instance().make(
      world, fig16_scenario().config, ctrl_spec);
  sim::RunConfig rc;  // 1 s / 2.5 ms: the Fig. 16 run config

  mmr::testing::AllocationCounter audit;
  const sim::RunResult rr = sim::run_experiment(world, *ctrl, rc);
  const std::size_t count = audit.delta();
  std::printf("full-trial allocation count: %zu (budget %zu)\n", count,
              kFullTrialAllocationBudget);
  EXPECT_EQ(rr.samples.size(), kNumTicks);
  EXPECT_LE(count, kFullTrialAllocationBudget)
      << "full trial performed " << count
      << " allocations (budget " << kFullTrialAllocationBudget
      << "): a hot-path allocation has crept back in";
}

// PR-9: the network scoring loop -- SNR + interference fold + SINR +
// sample + state-machine ledger -- is zero-allocation once workspaces
// are bound, exactly like the single-link engine loop above.
TEST_F(ZeroAllocTest, NetworkScoringLoopIsAllocationFree) {
  EXPECT_EQ(network_scoring_allocations(true), 0u)
      << "the per-tick network scoring loop allocated on the hot path";
}

// Same mechanism pin as UnboundWorldStillAllocatesPerTick: dropping the
// workspace binding brings the per-tick CSI temporaries back, proving
// the audit above exercises an allocation-prone path.
TEST_F(ZeroAllocTest, UnboundNetworkScoringLoopStillAllocatesPerTick) {
  EXPECT_GE(network_scoring_allocations(false), kNumTicks)
      << "expected the no-workspace network path to allocate every tick";
}

// --- Streaming service steady state (PR-8) ------------------------------

/// Frozen-beam controller with a no-op tick: isolates the streaming
/// SERVICE loop (network advance/scoring + O(1) accumulators) from the
/// controllers' probe paths, which legitimately allocate and are audited
/// separately via the budget test above.
class NoopFrozenController final : public core::BeamController {
 public:
  explicit NoopFrozenController(std::size_t num_elements)
      : weights_(num_elements,
                 cplx{1.0 / std::sqrt(static_cast<double>(num_elements)),
                      0.0}) {}

  void start(double, const core::LinkProbeInterface&) override {}
  void step(double, const core::LinkProbeInterface&) override {}
  const CVec& tx_weights() const override { return weights_; }
  bool link_available(double) const override { return true; }
  const char* name() const override { return "noop_frozen"; }

 private:
  CVec weights_;
};

void register_noop_frozen() {
  sim::ControllerRegistry::instance().add(
      "noop_frozen",
      [](const sim::LinkWorld& world, const sim::ScenarioConfig&,
         const sim::ControllerSpec&) -> std::unique_ptr<core::BeamController> {
        return std::make_unique<NoopFrozenController>(
            world.config().tx_ula.num_elements);
      });
}

sim::StreamingSpec streaming_audit_spec() {
  sim::StreamingSpec spec;
  spec.name = "alloc_audit";
  spec.network.link_scenario = fig16_scenario();
  spec.network.controller.name = "noop_frozen";
  spec.sessions = 2;
  spec.shards = 1;
  spec.jobs = 1;  // inline shard sweep: the zero-alloc path
  spec.seed = 13;
  spec.snapshot_every_s = 1.0;  // no snapshot boundary inside the audit
  return spec;
}

std::size_t streaming_epoch_allocations(const sim::StreamingSpec& spec,
                                        std::size_t audited_epochs) {
  sim::StreamingService service(spec);
  service.begin();
  // Warm-up: slot scratch, sample capacities, and the blocked/unblocked
  // path-count range all plateau before the audit window.
  for (std::size_t i = 0; i < 120; ++i) service.step_epoch();
  mmr::testing::AllocationCounter audit;
  for (std::size_t i = 0; i < audited_epochs; ++i) service.step_epoch();
  return audit.delta();
}

// The streaming tentpole's steady-state claim: with churn off, jobs=1,
// and no snapshot boundary, step_epoch -- network advance + scoring +
// every O(1) accumulator update -- performs ZERO heap allocations, so a
// service can tick forever with flat RSS.
TEST_F(ZeroAllocTest, SteadyStateStreamingEpochIsAllocationFree) {
  register_noop_frozen();
  EXPECT_EQ(streaming_epoch_allocations(streaming_audit_spec(), 200), 0u)
      << "the steady-state streaming tick loop allocated";
}

// Audit honesty: churn (session joins rebuild worlds/controllers) is
// allocation-heavy by design, and the same harness sees it.
TEST_F(ZeroAllocTest, ChurningStreamingLoopStillAllocates) {
  register_noop_frozen();
  sim::StreamingSpec spec = streaming_audit_spec();
  spec.churn.arrival_rate_per_s = 400.0;
  spec.churn.mean_lifetime_s = 0.05;
  spec.max_sessions = 8;
  EXPECT_GE(streaming_epoch_allocations(spec, 200), 1u)
      << "expected the churning table to allocate on joins";
}

}  // namespace
