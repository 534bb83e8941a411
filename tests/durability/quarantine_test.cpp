// The engine's single-attempt quarantine (a throwing trial keeps its
// slot, is reported with its index and stream seed, and stays out of the
// aggregate) and frozen timing.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/engine.h"
#include "sim/telemetry.h"
#include "tests/common/capture_sink.h"

namespace mmr::sim {
namespace {

/// A small, fast campaign every test starts from.
ExperimentSpec base_spec(std::size_t trials = 4) {
  ExperimentSpec spec;
  spec.name = "quarantine_demo";
  spec.scenario.name = "indoor";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.1;
  spec.trials = trials;
  spec.seed = 21;
  spec.seed_policy = SeedPolicy::kPerTrialStream;
  return spec;
}

TEST(Quarantine, ThrowingTrialIsQuarantinedAfterOneAttempt) {
  ExperimentSpec spec = base_spec();
  auto attempts_seen = std::make_shared<std::atomic<int>>(0);
  spec.customize = [attempts_seen](const TrialContext& ctx, ScenarioSpec&,
                                   ControllerSpec&, RunConfig&) {
    if (ctx.index == 2) {
      attempts_seen->fetch_add(1);
      throw std::runtime_error("deterministic failure in trial 2");
    }
  };
  mmr::testing::CaptureSink sink;
  const EngineResult r = Engine().run(spec, &sink);

  // The sweep completed: every trial keeps its slot.
  ASSERT_EQ(r.trials.size(), 4u);
  EXPECT_EQ(attempts_seen->load(), 1);  // never re-run

  ASSERT_EQ(r.failures.size(), 1u);
  const TrialFailure& f = r.failures[0];
  EXPECT_EQ(f.index, 2u);
  EXPECT_NE(f.error.find("deterministic failure in trial 2"),
            std::string::npos);
  // The stream seed re-runs exactly this trial in isolation.
  EXPECT_EQ(f.stream_seed, Rng::derive_stream_seed(spec.seed, 2));

  // Quarantined slot holds a default summary...
  EXPECT_EQ(r.trials[2].value.num_samples, 0u);
  // ...and is excluded from the aggregate: the aggregate must equal a
  // summarize_sweep over the three survivors.
  std::vector<SweepTrial<core::LinkSummary>> survivors = {
      r.trials[0], r.trials[1], r.trials[3]};
  const SweepSummary expected = summarize_sweep(survivors);
  EXPECT_EQ(r.aggregate.mean_reliability, expected.mean_reliability);
  EXPECT_EQ(r.aggregate.mean_throughput_bps, expected.mean_throughput_bps);

  // The failure reached telemetry too.
  ASSERT_EQ(sink.failures.size(), 1u);
  EXPECT_EQ(sink.failures[0].index, 2u);
}

TEST(Quarantine, QuarantineIsReportedInSweepJson) {
  ExperimentSpec spec = base_spec(3);
  spec.customize = [](const TrialContext& ctx, ScenarioSpec&,
                      ControllerSpec&, RunConfig&) {
    if (ctx.index == 0) throw std::runtime_error("boom");
  };
  spec.freeze_timing = true;
  std::ostringstream os;
  JsonLinesSink sink(os);
  (void)Engine().run(spec, &sink);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"trial_failure\""), std::string::npos);
  EXPECT_NE(json.find("\"failed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"failures\": [{\"index\": 0, "), std::string::npos);
  EXPECT_NE(json.find(", \"error\": \"boom\"}"), std::string::npos);
  // Every failure is a quarantine after one attempt: no key restates it.
  EXPECT_EQ(json.find("quarantined"), std::string::npos);
  EXPECT_EQ(json.find("attempts"), std::string::npos);
}

TEST(Quarantine, CleanRunEmitsNoFailureFields) {
  // Byte-compat guard: without failures the JSON must not mention the
  // failure fields at all (older consumers never see new keys).
  ExperimentSpec spec = base_spec(2);
  spec.freeze_timing = true;
  std::ostringstream os;
  JsonLinesSink sink(os);
  const EngineResult r = Engine().run(spec, &sink);
  EXPECT_TRUE(r.failures.empty());
  EXPECT_EQ(os.str().find("\"failed\""), std::string::npos);
  EXPECT_EQ(os.str().find("\"failures\""), std::string::npos);
  EXPECT_EQ(os.str().find("\"trial_failure\""), std::string::npos);
}

TEST(Quarantine, FreezeTimingZeroesEveryTimingField) {
  ExperimentSpec spec = base_spec(2);
  spec.freeze_timing = true;
  const EngineResult r = Engine().run(spec);
  EXPECT_EQ(r.timing.wall_s, 0.0);
  EXPECT_EQ(r.timing.serial_equivalent_s, 0.0);
  for (const auto& t : r.trials) {
    EXPECT_EQ(t.wall_s, 0.0);
    EXPECT_EQ(t.cpu_s, 0.0);
  }
  // Frozen runs of the same spec serialize to identical bytes.
  std::ostringstream a, b;
  JsonLinesSink sa(a), sb(b);
  (void)Engine().run(spec, &sa);
  (void)Engine().run(spec, &sb);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace mmr::sim
