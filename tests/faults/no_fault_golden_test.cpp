// Inert-plan golden: carrying an all-zero FaultPlan (or the "none"
// preset) through the engine must be indistinguishable -- byte for byte
// in the serialized JSON, bit for bit in every sample -- from a spec that
// never mentions faults. This is the contract that let the fault layer
// land without the fig16/17/18 bench records changing. Also pins that a
// FAULTED sweep keeps the jobs=K == jobs=1 determinism contract.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/telemetry.h"

namespace mmr::sim {
namespace {

using Trials = std::vector<SweepTrial<core::LinkSummary>>;

/// Serialize with timings zeroed (the only run-to-run-varying fields).
std::string json_of(const std::string& name, Trials trials,
                    std::span<const std::string> labels = {}) {
  for (auto& t : trials) {
    t.wall_s = 0.0;
    t.cpu_s = 0.0;
  }
  SweepTiming timing;
  timing.jobs = 1;
  std::ostringstream os;
  write_sweep_json(os, name, trials, timing, labels);
  return os.str();
}

/// Fig. 16 campaign shape: fixed seed, blocker, two-scheme matrix.
ExperimentSpec fig16_shape() {
  ExperimentSpec spec;
  spec.name = "fig16_shape";
  spec.scenario.name = "indoor_sparse";
  spec.scenario.config.seed = 13;
  spec.scenario.blockers = {{0.45, 1.2, 30.0}};
  spec.run.duration_s = 0.4;
  spec.trials = 2;
  spec.seed = 13;
  spec.seed_policy = SeedPolicy::kFixed;
  spec.record_samples = true;
  spec.customize = [](const TrialContext& ctx, ScenarioSpec& /*scenario*/,
                      ControllerSpec& controller, RunConfig& /*run*/) {
    controller.name = ctx.index == 0 ? "single_frozen" : "mmreliable";
  };
  spec.label = [](const TrialContext& ctx) {
    return std::string(ctx.index == 0 ? "single" : "multi");
  };
  return spec;
}

/// Fig. 17 campaign shape: per-trial seed streams, mobile UE.
ExperimentSpec fig17_shape() {
  ExperimentSpec spec;
  spec.name = "fig17_shape";
  spec.scenario.name = "indoor";
  spec.scenario.ue_velocity = {0.0, -1.5};
  spec.run.duration_s = 0.3;
  spec.trials = 3;
  spec.seed = 11;
  spec.seed_policy = SeedPolicy::kPerTrialStream;
  spec.record_samples = true;
  return spec;
}

void expect_byte_identical(const ExperimentSpec& base) {
  // Three ways of saying "no faults": never touching the field, an
  // explicitly default-constructed plan, and the registered "none"
  // preset. All three must produce the same bytes and bits.
  ExperimentSpec zeroed = base;
  zeroed.run.faults = FaultPlan{};
  ExperimentSpec none = base;
  none.run.faults = fault_preset("none");

  struct Capture {
    EngineResult result;
    std::string stream;
  };
  // The fault/sweep JSON stream under frozen timing (so the sweep line
  // is a pure function of the spec).
  auto run = [](ExperimentSpec spec) {
    std::ostringstream os;
    JsonLinesSink sink(os);
    spec.freeze_timing = true;
    Capture cap;
    cap.result = Engine().run(spec, &sink);
    cap.stream = os.str();
    return cap;
  };
  const Capture a = run(base);
  const Capture b = run(zeroed);
  const Capture c = run(none);

  EXPECT_EQ(a.stream, b.stream) << "JSON stream must not change";
  EXPECT_EQ(a.stream, c.stream);
  EXPECT_EQ(a.stream.find("\"fault\""), std::string::npos);
  EXPECT_EQ(json_of(base.name, a.result.trials, a.result.labels),
            json_of(base.name, b.result.trials, b.result.labels));
  EXPECT_EQ(json_of(base.name, a.result.trials, a.result.labels),
            json_of(base.name, c.result.trials, c.result.labels));

  ASSERT_EQ(a.result.samples.size(), b.result.samples.size());
  for (std::size_t t = 0; t < a.result.samples.size(); ++t) {
    ASSERT_EQ(a.result.samples[t].size(), b.result.samples[t].size());
    ASSERT_EQ(a.result.samples[t].size(), c.result.samples[t].size());
    for (std::size_t i = 0; i < a.result.samples[t].size(); ++i) {
      for (const Capture* other : {&b, &c}) {
        const core::LinkSample& x = a.result.samples[t][i];
        const core::LinkSample& y = other->result.samples[t][i];
        EXPECT_EQ(x.t_s, y.t_s);
        EXPECT_EQ(x.snr_db, y.snr_db);
        EXPECT_EQ(x.throughput_bps, y.throughput_bps);
        EXPECT_EQ(x.available, y.available);
      }
    }
    EXPECT_TRUE(a.result.fault_events[t].empty());
    EXPECT_TRUE(b.result.fault_events[t].empty());
    EXPECT_TRUE(c.result.fault_events[t].empty());
  }
}

TEST(NoFaultGolden, Fig16ShapeIsByteIdenticalWithInertPlan) {
  expect_byte_identical(fig16_shape());
}

TEST(NoFaultGolden, Fig17ShapeIsByteIdenticalWithInertPlan) {
  expect_byte_identical(fig17_shape());
}

TEST(NoFaultGolden, InertPlanIsByteIdenticalAcrossJobsCounts) {
  ExperimentSpec spec = fig17_shape();
  spec.run.faults = fault_preset("none");
  ExperimentSpec parallel = spec;
  parallel.jobs = 3;
  const EngineResult serial = Engine().run(spec);
  const EngineResult multi = Engine().run(parallel);
  EXPECT_EQ(json_of(spec.name, serial.trials),
            json_of(spec.name, multi.trials));
}

TEST(NoFaultGolden, FaultedSweepIsDeterministicAcrossJobsCounts) {
  ExperimentSpec spec = fig16_shape();
  spec.run.faults = fault_preset("moderate");
  ExperimentSpec parallel = spec;
  parallel.jobs = 3;
  const EngineResult serial = Engine().run(spec);
  const EngineResult multi = Engine().run(parallel);
  EXPECT_EQ(json_of(spec.name, serial.trials, serial.labels),
            json_of(spec.name, multi.trials, multi.labels));
  // The fault event streams themselves must replay identically.
  ASSERT_EQ(serial.fault_events.size(), multi.fault_events.size());
  for (std::size_t t = 0; t < serial.fault_events.size(); ++t) {
    ASSERT_EQ(serial.fault_events[t].size(), multi.fault_events[t].size());
    for (std::size_t i = 0; i < serial.fault_events[t].size(); ++i) {
      EXPECT_EQ(serial.fault_events[t][i].kind, multi.fault_events[t][i].kind);
      EXPECT_EQ(serial.fault_events[t][i].t_s, multi.fault_events[t][i].t_s);
      EXPECT_EQ(serial.fault_events[t][i].value,
                multi.fault_events[t][i].value);
    }
  }
  // And an enabled plan must actually do something in this shape.
  std::size_t total = 0;
  for (const auto& evs : serial.fault_events) total += evs.size();
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace mmr::sim
