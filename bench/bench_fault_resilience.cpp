// Fault-resilience campaign: how gracefully does each controller degrade
// when the probe/CSI feedback path itself misbehaves?
//
// For each fault preset (none -> light -> moderate -> heavy) the bench
// runs the walker-crossing scenario of Fig. 16 under three schemes --
// mmReliable's two-beam controller, the reactive single-beam baseline,
// and the frozen single-beam -- with the SAME world seeds per repetition,
// so the comparison is paired. Faults (dropped probes, CSI noise,
// quantization, stale epochs, NaN taps, SNR bias) hit only the feedback
// the controller sees; the link is always scored on the TRUE channel, so
// the numbers measure controller robustness, not channel damage.
//
// Expected shape: multi-beam redundancy plus the degraded-mode hardening
// (sanitized reports, last-good fallback, bounded backoff, outage-budget
// retraining) keeps mmReliable's mean SNR strictly above the reactive
// single-beam baseline as the fault rate escalates.
//
// One engine campaign per preset; each ends with its own JSON record.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/constants.h"
#include "common/table.h"
#include "common/units.h"
#include "sim/campaign_cli.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/scenario.h"

using namespace mmr;

namespace {

const std::vector<std::string> kSchemes = {"mmreliable", "reactive",
                                           "single_frozen"};

struct SchemeStats {
  double mean_snr_db = 0.0;  ///< delivered (availability-weighted) mean
  double reliability = 0.0;
  std::size_t fault_events = 0;
};

// Post-transient delivered mean SNR of one run: ticks where the link is
// down deliver zero signal, so they average in as zero linear SNR. A
// controller that holds a great beam but spends half its time retraining
// scores accordingly. (Skips the t < 0.2 s training ramp, like the
// Fig. 16 table does.)
double mean_snr_of(const std::vector<core::LinkSample>& samples) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : samples) {
    if (s.t_s < 0.2) continue;
    sum += s.available ? from_db(s.snr_db) : 0.0;
    ++n;
  }
  return n > 0 ? to_db(sum / static_cast<double>(n)) : 0.0;
}

SchemeStats stats_of(const sim::EngineResult& res, std::size_t scheme,
                     std::size_t reps) {
  SchemeStats st;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::size_t trial = scheme * reps + rep;
    st.mean_snr_db += mean_snr_of(res.samples[trial]);
    st.reliability += res.trials[trial].value.reliability;
    st.fault_events += res.fault_events[trial].size();
  }
  st.mean_snr_db /= static_cast<double>(reps);
  st.reliability /= static_cast<double>(reps);
  return st;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = sim::parse_sweep_cli(argc, argv);
  const std::size_t reps = opts.trials > 0 ? opts.trials : 3;
  const std::uint64_t seed = opts.seed > 0 ? opts.seed : 13;
  // --faults NAME narrows the sweep to that one preset.
  const std::vector<std::string> presets =
      opts.faults.empty() ? sim::fault_preset_names()
                          : std::vector<std::string>{opts.faults};

  std::printf("=== Fault resilience: escalating probe/CSI fault presets "
              "===\n");
  std::printf("(walker crossing, paired world seeds; %zu repetition(s) per "
              "scheme; link scored on the TRUE channel)\n\n",
              reps);

  for (const std::string& preset : presets) {
    // Trial layout: [scheme0 rep0..repN-1, scheme1 ..., scheme2 ...].
    // Rep 0 is the paper's fixed crossing; later reps randomize crossing
    // time and walking speed from the rep-indexed stream, identically for
    // every scheme and preset so everything stays paired.
    sim::ExperimentSpec spec;
    spec.name = "fault_resilience_" + preset;
    spec.scenario.name = "indoor_sparse";
    spec.run.duration_s = 1.0;
    spec.run.tick_s = 2.5e-3;
    spec.run.faults = sim::fault_preset(preset);
    spec.trials = kSchemes.size() * reps;
    spec.seed = seed;
    spec.seed_policy = sim::SeedPolicy::kFixed;
    spec.record_samples = true;
    spec.customize = [reps, seed](const sim::TrialContext& ctx,
                                  sim::ScenarioSpec& scenario,
                                  sim::ControllerSpec& controller,
                                  sim::RunConfig& /*run*/) {
      const std::size_t scheme = ctx.index / reps;
      const std::size_t rep = ctx.index % reps;
      scenario.config.seed =
          rep == 0 ? seed : Rng::derive_stream_seed(seed, rep);
      double crossing_s = 0.5, speed_mps = 1.0;
      if (rep > 0) {
        Rng rng = Rng(seed).fork(rep);
        crossing_s = rng.uniform(0.35, 0.65);
        speed_mps = rng.uniform(0.8, 1.8);
      }
      scenario.blockers = {{crossing_s, speed_mps, 30.0}};
      controller.name = kSchemes[scheme];
    };
    spec.label = [reps](const sim::TrialContext& ctx) {
      return kSchemes[ctx.index / reps] + "/rep" +
             std::to_string(ctx.index % reps);
    };
    sim::run_campaign(spec, opts, [&](const sim::EngineResult& res) {
      std::printf("--- preset: %s ---\n", preset.c_str());
      Table t({"scheme", "mean SNR (dB)", "reliability", "fault events"});
      for (std::size_t s = 0; s < kSchemes.size(); ++s) {
        const SchemeStats st = stats_of(res, s, reps);
        t.add_row({kSchemes[s], Table::num(st.mean_snr_db, 2),
                   Table::num(st.reliability, 4),
                   Table::num(static_cast<double>(st.fault_events), 0)});
      }
      t.print(std::cout);
      std::printf("\n");
    });
  }
  std::printf("expected shape: mmReliable's mean SNR stays above the "
              "reactive baseline at every preset; the gap widens as the "
              "fault rate escalates.\n");
  return 0;
}
