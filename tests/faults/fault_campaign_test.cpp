// Campaign-level acceptance for the fault layer, mirroring
// bench_fault_resilience's moderate-preset comparison:
//   * mmReliable's delivered (availability-weighted) mean SNR stays
//     strictly above the reactive single-beam baseline,
//   * no trial leaks a NaN/Inf into any telemetry event or sample --
//     asserted by scanning the actual JSON-lines byte stream a sink
//     produces and every recorded sample,
//   * every recorded fault event is finite and timestamped within the run.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/telemetry.h"
#include "tests/common/capture_sink.h"

namespace mmr::sim {
namespace {

constexpr std::size_t kReps = 3;
const std::vector<std::string> kSchemes = {"mmreliable", "reactive"};

/// The bench's campaign shape: paired walker crossings, moderate preset.
ExperimentSpec campaign(const std::string& preset) {
  ExperimentSpec spec;
  spec.name = "fault_campaign_" + preset;
  spec.scenario.name = "indoor_sparse";
  spec.run.duration_s = 1.0;
  spec.run.tick_s = 2.5e-3;
  spec.run.faults = fault_preset(preset);
  spec.trials = kSchemes.size() * kReps;
  spec.seed = 13;
  spec.seed_policy = SeedPolicy::kFixed;
  spec.record_samples = true;
  spec.customize = [](const TrialContext& ctx, ScenarioSpec& scenario,
                      ControllerSpec& controller, RunConfig& /*run*/) {
    const std::size_t rep = ctx.index % kReps;
    scenario.config.seed =
        rep == 0 ? 13 : Rng::derive_stream_seed(13, rep);
    double crossing_s = 0.5, speed_mps = 1.0;
    if (rep > 0) {
      Rng rng = Rng(13).fork(rep);
      crossing_s = rng.uniform(0.35, 0.65);
      speed_mps = rng.uniform(0.8, 1.8);
    }
    scenario.blockers = {{crossing_s, speed_mps, 30.0}};
    controller.name = kSchemes[ctx.index / kReps];
  };
  return spec;
}

/// Delivered mean SNR: unavailable ticks contribute zero linear SNR.
double delivered_snr_db(const std::vector<core::LinkSample>& samples) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : samples) {
    if (s.t_s < 0.2) continue;
    sum += s.available ? from_db(s.snr_db) : 0.0;
    ++n;
  }
  return to_db(sum / static_cast<double>(n));
}

TEST(FaultCampaign, MmReliableBeatsReactiveUnderModerateFaults) {
  const EngineResult res = Engine().run(campaign("moderate"));
  double mm = 0.0, reactive = 0.0;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    mm += delivered_snr_db(res.samples[rep]);
    reactive += delivered_snr_db(res.samples[kReps + rep]);
  }
  mm /= kReps;
  reactive /= kReps;
  EXPECT_GT(mm, reactive)
      << "multi-beam + degraded-mode hardening must out-deliver the "
         "reactive baseline under moderate faults (mm="
      << mm << " dB, reactive=" << reactive << " dB)";
}

TEST(FaultCampaign, TelemetryStreamCarriesNoNonFiniteValues) {
  std::ostringstream os;
  JsonLinesSink sink(os);
  const EngineResult res = Engine().run(campaign("moderate"), &sink);
  const std::string stream = os.str();
  ASSERT_FALSE(stream.empty());

  // Scan the emitted bytes: a leaked non-finite double serializes as
  // "nan"/"inf" tokens, which must never appear in any JSON line.
  std::string lower;
  lower.reserve(stream.size());
  for (char c : stream) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  EXPECT_EQ(lower.find("nan"), std::string::npos);
  EXPECT_EQ(lower.find("inf"), std::string::npos);

  // The stream must actually contain fault lines to make the scan mean
  // something.
  EXPECT_NE(stream.find("\"fault\": "), std::string::npos);
  std::size_t events = 0;
  for (const auto& evs : res.fault_events) events += evs.size();
  EXPECT_GT(events, 0u);

  // Per-tick samples come back in the result, not the stream.
  ASSERT_EQ(res.samples.size(), kSchemes.size() * kReps);
  for (const auto& samples : res.samples) {
    ASSERT_FALSE(samples.empty());
    for (const core::LinkSample& s : samples) {
      EXPECT_TRUE(std::isfinite(s.t_s));
      EXPECT_TRUE(std::isfinite(s.snr_db));
      EXPECT_TRUE(std::isfinite(s.throughput_bps));
    }
  }
}

TEST(FaultCampaign, FaultEventsAreFiniteTypedAndInRange) {
  const ExperimentSpec spec = campaign("moderate");
  const EngineResult res = Engine().run(spec);
  ASSERT_EQ(res.fault_events.size(), spec.trials);
  for (const auto& evs : res.fault_events) {
    for (const core::FaultEvent& ev : evs) {
      EXPECT_TRUE(std::isfinite(ev.t_s));
      EXPECT_GE(ev.t_s, 0.0);
      EXPECT_LT(ev.t_s, spec.run.duration_s);
      EXPECT_TRUE(std::isfinite(ev.value));
      const std::string name = core::to_string(ev.kind);
      EXPECT_FALSE(name.empty());
      EXPECT_NE(name, "unknown");
    }
  }
}

TEST(FaultCampaign, SinkHearsEveryFaultInTrialOrder) {
  mmr::testing::CaptureSink sink;
  const ExperimentSpec spec = campaign("moderate");
  const EngineResult res = Engine().run(spec, &sink);
  ASSERT_EQ(res.fault_events.size(), spec.trials);
  std::size_t next = 0;
  for (std::size_t t = 0; t < spec.trials; ++t) {
    for (const core::FaultEvent& ev : res.fault_events[t]) {
      ASSERT_LT(next, sink.faults.size());
      EXPECT_EQ(sink.faults[next].kind, ev.kind);
      EXPECT_EQ(sink.faults[next].t_s, ev.t_s);
      ++next;
    }
  }
  EXPECT_GT(next, 0u);
  EXPECT_EQ(sink.faults.size(), next);
  EXPECT_EQ(sink.sweeps, 1u);
}

}  // namespace
}  // namespace mmr::sim
