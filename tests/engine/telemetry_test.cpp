// Telemetry sinks and the run_experiment config validation added with the
// experiment engine: the engine's sink replay, JsonLinesSink
// byte-compatibility with write_sweep_json and its flush policy, and the
// RunConfig contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/telemetry.h"
#include "tests/common/capture_sink.h"

namespace mmr::sim {
namespace {

/// A small campaign with a live fault plan, so the sink hears fault
/// events from every trial, and frozen timing, so its JSON is a pure
/// function of the spec.
ExperimentSpec faulted_campaign(std::size_t jobs) {
  ExperimentSpec spec;
  spec.name = "order";
  spec.scenario.name = "indoor";
  spec.run.duration_s = 0.1;
  spec.run.faults = fault_preset("heavy");
  spec.trials = 4;
  spec.jobs = jobs;
  spec.seed = 5;
  spec.freeze_timing = true;
  return spec;
}

TEST(Telemetry, SinkNeverPerturbsTheResult) {
  const ExperimentSpec spec = faulted_campaign(1);
  std::ostringstream os;
  JsonLinesSink sink(os);
  const EngineResult with_sink = Engine().run(spec, &sink);
  const EngineResult without = Engine().run(spec);
  ASSERT_EQ(with_sink.trials.size(), without.trials.size());
  for (std::size_t i = 0; i < without.trials.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(with_sink.trials[i].value.reliability,
              without.trials[i].value.reliability);
    EXPECT_EQ(with_sink.trials[i].value.mean_throughput_bps,
              without.trials[i].value.mean_throughput_bps);
    EXPECT_EQ(with_sink.fault_events[i].size(),
              without.fault_events[i].size());
  }
}

TEST(Telemetry, JsonLinesSinkMatchesWriteSweepJsonByteForByte) {
  std::vector<SweepTrial<core::LinkSummary>> trials(2);
  trials[0].index = 0;
  trials[0].wall_s = 0.25;
  trials[0].cpu_s = 0.2;
  trials[0].value.reliability = 0.5;
  trials[0].value.mean_throughput_bps = 1.25e9;
  trials[0].value.throughput_reliability_product = 6.25e8;
  trials[1].index = 1;
  trials[1].wall_s = 0.5;
  trials[1].cpu_s = 0.4;
  trials[1].value.reliability = 1.0 / 3.0;  // exercises precision
  trials[1].value.mean_throughput_bps = 987654321.123;
  trials[1].value.throughput_reliability_product = 3.2e8;
  SweepTiming timing;
  timing.wall_s = 0.75;
  timing.serial_equivalent_s = 0.6;
  timing.jobs = 2;
  const std::vector<std::string> labels = {"a", "b"};

  std::ostringstream expected;
  write_sweep_json(expected, "bytecheck", trials, timing, labels);

  std::ostringstream actual;
  JsonLinesSink sink(actual);
  SweepRecord record;
  record.name = "bytecheck";
  record.trials = trials;
  record.timing = timing;
  record.labels = labels;
  sink.on_sweep(record);

  EXPECT_EQ(actual.str(), expected.str());
}

TEST(Telemetry, EngineReplaysSinkEventsInTrialIndexOrder) {
  // jobs=2 must deliver the same sink stream as jobs=1 (the ordering
  // contract: per-trial events are kept and replayed after the barrier).
  auto stream = [](std::size_t jobs) {
    std::ostringstream os;
    JsonLinesSink sink(os);
    Engine().run(faulted_campaign(jobs), &sink);
    return os.str();
  };
  const std::string serial = stream(1);
  std::string parallel = stream(2);
  // The sweep record names its worker count; nothing else may differ.
  const std::size_t jobs_at = parallel.find("\"jobs\": 2, ");
  ASSERT_NE(jobs_at, std::string::npos);
  parallel.replace(jobs_at, 11, "\"jobs\": 1, ");
  EXPECT_EQ(parallel, serial);
  EXPECT_NE(serial.find("{\"fault\": "), std::string::npos);
  EXPECT_NE(serial.find("{\"bench\": \"order\""), std::string::npos);

  // The fault events arrive trial by trial, each trial's in emission
  // order, then one sweep record.
  mmr::testing::CaptureSink sink;
  const EngineResult res = Engine().run(faulted_campaign(2), &sink);
  std::vector<core::FaultEvent> expected;
  for (const auto& evs : res.fault_events) {
    expected.insert(expected.end(), evs.begin(), evs.end());
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(sink.faults.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sink.faults[i].kind, expected[i].kind);
    EXPECT_EQ(sink.faults[i].t_s, expected[i].t_s);
    EXPECT_EQ(sink.faults[i].value, expected[i].value);
  }
  EXPECT_EQ(sink.sweeps, 1u);
}

// --- Streaming snapshots and the flush_every_n policy -------------------

StreamSnapshot sample_snapshot() {
  StreamSnapshot s;
  s.t_s = 0.25;
  s.index = 3;
  s.live_sessions = 42;
  s.total_joined = 50;
  s.total_left = 8;
  s.window_ticks = 420;
  s.total_ticks = 1680;
  s.availability = 0.975;
  s.snr_mean_db = 21.5;
  s.tput_mean_bps = 1.5e9;
  s.dropped = 2;
  return s;
}

TEST(Telemetry, JsonLinesSinkEmitsOneSnapshotLine) {
  std::ostringstream os;
  JsonLinesSink sink(os);
  sink.on_snapshot(sample_snapshot());
  const std::string line = os.str();
  EXPECT_EQ(line.rfind("{\"snapshot\": {\"index\": 3, ", 0), 0u);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("\"live_sessions\": 42"), std::string::npos);
  EXPECT_NE(line.find("\"total_ticks\": 1680"), std::string::npos);
  EXPECT_NE(line.find("\"availability\": 0.975"), std::string::npos);
  EXPECT_NE(line.find("\"dropped\": 2"), std::string::npos);
  // One line per snapshot: no embedded newlines.
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
}

/// ostringstream buffer that counts sync() (i.e. flush) calls.
struct CountingBuf : std::stringbuf {
  int syncs = 0;
  int sync() override {
    ++syncs;
    return std::stringbuf::sync();
  }
};

TEST(Telemetry, FlushEveryNAmortizesFlushesWithoutChangingBytes) {
  const StreamSnapshot snap = sample_snapshot();
  auto emit = [&](std::size_t flush_every_n, int* syncs) {
    CountingBuf buf;
    std::ostream os(&buf);
    JsonLinesSink sink(os, flush_every_n);
    for (int i = 0; i < 10; ++i) sink.on_snapshot(snap);
    if (syncs != nullptr) *syncs = buf.syncs;
    return buf.str();
  };

  int durable = 0, amortized = 0, never = 0;
  const std::string bytes_durable = emit(1, &durable);
  const std::string bytes_amortized = emit(4, &amortized);
  const std::string bytes_never = emit(0, &never);
  // The policy changes WHEN bytes reach the OS, never WHICH bytes.
  EXPECT_EQ(bytes_durable, bytes_amortized);
  EXPECT_EQ(bytes_durable, bytes_never);
  EXPECT_EQ(durable, 10);   // the durable default: every record
  EXPECT_EQ(amortized, 2);  // 10 records / 4 per flush
  EXPECT_EQ(never, 0);      // 0 = never flush mid-stream
}

TEST(Telemetry, DefaultFlushPolicyStaysPerRecordForFaultLines) {
  // The campaign durability contract rides on the default: every record
  // type flushes as it is written.
  CountingBuf buf;
  std::ostream os(&buf);
  JsonLinesSink sink(os);
  core::FaultEvent ev;
  ev.t_s = 0.5;
  sink.on_fault(ev);
  sink.on_snapshot(sample_snapshot());
  EXPECT_EQ(buf.syncs, 2);
}

// --- RunConfig validation ----------------------------------------------

class RunConfigValidation : public ::testing::Test {
 protected:
  RunConfigValidation() : world_(make_indoor_world(cfg_)) {
    ctrl_ = make_mmreliable(world_, cfg_);
  }
  ScenarioConfig cfg_;
  LinkWorld world_;
  std::unique_ptr<core::MmReliableController> ctrl_;
};

TEST_F(RunConfigValidation, RejectsNonPositiveDuration) {
  RunConfig rc;
  rc.duration_s = 0.0;
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
  rc.duration_s = -1.0;
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
}

TEST_F(RunConfigValidation, RejectsNonPositiveOrNonFiniteTick) {
  RunConfig rc;
  rc.tick_s = 0.0;
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
  rc.tick_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
}

TEST_F(RunConfigValidation, RejectsNonFiniteOutageThreshold) {
  RunConfig rc;
  rc.outage_snr_db = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
}

TEST_F(RunConfigValidation, RejectsOverheadOutsideUnitInterval) {
  RunConfig rc;
  rc.protocol_overhead = 1.0;
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
  rc.protocol_overhead = -0.1;
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
}

TEST_F(RunConfigValidation, AcceptsTheDefaultConfig) {
  RunConfig rc;
  rc.duration_s = 0.05;
  EXPECT_NO_THROW(run_experiment(world_, *ctrl_, rc));
}

}  // namespace
}  // namespace mmr::sim
