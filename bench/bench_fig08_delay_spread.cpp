// Figs. 7-8 reproduction: wideband behaviour of multi-beams and the delay
// phased array (Section 3.4).
//
// A phase-only multi-beam over a two-path channel with 5 / 10 ns delay
// spread suffers deep frequency notches; the delay phased array cancels
// the inter-path delay and restores a flat response at the combined
// (2-path) power level. A single-path channel is flat without any of this.
#include <cstdio>
#include <iostream>

#include "array/delay_array.h"
#include "channel/wideband.h"
#include "common/angles.h"
#include "common/table.h"
#include "common/units.h"
#include "core/delay_multibeam.h"
#include "core/multibeam.h"
#include "sim/campaign_cli.h"

using namespace mmr;

namespace {

const array::Ula kUla{16, 0.5};
const channel::WidebandSpec kSpec{28e9, 400e6, 64};

std::vector<channel::Path> two_paths(double spread_s) {
  channel::Path p0;
  p0.aod_rad = deg_to_rad(-20.0);
  p0.gain = cplx{1e-4, 0.0};
  p0.is_los = true;
  channel::Path p1 = p0;
  p1.aod_rad = deg_to_rad(25.0);
  p1.is_los = false;
  p1.delay_s = spread_s;
  return {p0, p1};
}

struct Series {
  RVec snr_db;      // per subcarrier, relative to single-beam mean
  double min_db, mean_db, ripple_db;
};

Series evaluate(const std::vector<channel::Path>& paths,
                const array::DelayPhasedArray& dpa, double ref_power) {
  const CVec csi = channel::effective_csi_freq_weights(
      paths, kUla, [&](double f) { return dpa.weights_at(28e9, f); }, kSpec,
      channel::RxFrontend::omni());
  Series s;
  double lo = 1e300, hi = 0.0, acc = 0.0;
  for (const cplx& h : csi) {
    const double p = std::norm(h);
    s.snr_db.push_back(to_db(p / ref_power));
    lo = std::min(lo, p);
    hi = std::max(hi, p);
    acc += p;
  }
  s.min_db = to_db(lo / ref_power);
  s.mean_db = to_db(acc / csi.size() / ref_power);
  s.ripple_db = to_db(hi / lo);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = sim::parse_sweep_cli(argc, argv);
  std::printf("=== Figs. 7-8: SNR across frequency, delay phased array ===\n");
  std::printf("(values in dB relative to a single beam on path 1)\n\n");

  // Reference: single beam on the first path.
  const auto ref_paths = two_paths(0.0);
  array::DelayPhasedArray single(kUla, {deg_to_rad(-20.0)});
  const CVec ref_csi = channel::effective_csi_freq_weights(
      {ref_paths[0]}, kUla, [&](double f) { return single.weights_at(28e9, f); },
      kSpec, channel::RxFrontend::omni());
  double ref_power = 0.0;
  for (const cplx& h : ref_csi) ref_power += std::norm(h);
  ref_power /= ref_csi.size();

  Table t({"delay spread", "scheme", "mean gain (dB)", "worst subcarrier (dB)",
           "ripple (dB)"});
  const std::vector<double> angles{deg_to_rad(-20.0), deg_to_rad(25.0)};
  const std::vector<cplx> ratios{cplx{1.0, 0.0}, cplx{1.0, 0.0}};
  for (double spread_ns : {0.0, 5.0, 10.0}) {
    const auto paths = two_paths(spread_ns * 1e-9);
    const std::vector<double> delays{0.0, spread_ns * 1e-9};
    // Full-aperture constructive multi-beam (Eq. 10): the paper's
    // "non-delay-optimized mmReliable".
    const auto eq10 = core::synthesize_multibeam(
        kUla, core::constructive_components(angles, ratios));
    const auto subarray_flat =
        core::build_delay_multibeam(kUla, angles, ratios, delays, false);
    const auto comp =
        core::build_delay_multibeam(kUla, angles, ratios, delays, true);

    const CVec csi_eq10 = channel::effective_csi_freq_weights(
        paths, kUla, [&](double) { return eq10.weights; }, kSpec,
        channel::RxFrontend::omni());
    Series s_eq10;
    {
      double lo = 1e300, hi = 0.0, acc = 0.0;
      for (const cplx& h : csi_eq10) {
        const double p = std::norm(h);
        lo = std::min(lo, p);
        hi = std::max(hi, p);
        acc += p;
      }
      s_eq10.min_db = to_db(lo / ref_power);
      s_eq10.mean_db = to_db(acc / csi_eq10.size() / ref_power);
      s_eq10.ripple_db = to_db(hi / lo);
    }
    const Series s_flat = evaluate(paths, subarray_flat, ref_power);
    const Series s_comp = evaluate(paths, comp, ref_power);
    const std::string label = Table::num(spread_ns, 0) + " ns";
    t.add_row({label, "Eq.10 multi-beam (full aperture)",
               Table::num(s_eq10.mean_db, 2), Table::num(s_eq10.min_db, 2),
               Table::num(s_eq10.ripple_db, 2)});
    t.add_row({label, "subarray, no delay comp.", Table::num(s_flat.mean_db, 2),
               Table::num(s_flat.min_db, 2), Table::num(s_flat.ripple_db, 2)});
    t.add_row({label, "delay phased array", Table::num(s_comp.mean_db, 2),
               Table::num(s_comp.min_db, 2), Table::num(s_comp.ripple_db, 2)});
  }
  t.print(std::cout);
  std::printf("\nNote: with total radiated power conserved over one\n"
              "aperture, splitting into per-beam subarrays costs exactly\n"
              "the multipath combining gain; the delay lines buy FLATNESS\n"
              "(no notches), not extra mean SNR. The paper's +3 dB flat\n"
              "curve corresponds to per-subarray TRP normalization.\n");

  std::printf("\nPer-subcarrier series (10 ns spread), every 4th subcarrier:\n");
  const auto paths = two_paths(10e-9);
  const std::vector<double> delays{0.0, 10e-9};
  const Series s_flat = evaluate(
      paths, core::build_delay_multibeam(kUla, angles, ratios, delays, false),
      ref_power);
  const Series s_comp = evaluate(
      paths, core::build_delay_multibeam(kUla, angles, ratios, delays, true),
      ref_power);
  std::printf("%10s %14s %14s\n", "f (MHz)", "phase-only", "delay-comp");
  for (std::size_t k = 0; k < kSpec.num_subcarriers; k += 4) {
    std::printf("%10.1f %14.2f %14.2f\n", kSpec.freq_offset(k) / 1e6,
                s_flat.snr_db[k], s_comp.snr_db[k]);
  }
  std::printf("\npaper shape: delay-optimized response flat at ~+3 dB; "
              "phase-only response notches at certain frequencies.\n");

  std::printf("\n=== delay phased array as a live controller (engine) "
              "===\n");
  {
    // The curves above are open-loop; this closes the loop: the
    // delay-multibeam controller trains on the impaired link and holds
    // its delay-compensated beam against the phase-only mmReliable
    // multi-beam on the same room.
    const std::vector<std::string> ctrls = {"delay_multibeam", "mmreliable"};
    sim::ExperimentSpec spec;
    spec.name = "fig08_delay_multibeam_link";
    spec.scenario.name = "indoor";
    spec.scenario.config.seed = 7;
    spec.run.duration_s = 0.25;
    spec.trials = ctrls.size();
    spec.seed = 7;
    spec.seed_policy = sim::SeedPolicy::kFixed;
    spec.customize = [&ctrls](const sim::TrialContext& ctx,
                              sim::ScenarioSpec& /*scenario*/,
                              sim::ControllerSpec& controller,
                              sim::RunConfig& /*run*/) {
      controller.name = ctrls[ctx.index];
    };
    spec.label = [&ctrls](const sim::TrialContext& ctx) {
      return ctrls[ctx.index];
    };
    sim::run_campaign(spec, opts, [&](const sim::EngineResult& res) {
      for (std::size_t i = 0; i < ctrls.size(); ++i) {
        std::printf("%16s: reliability %.3f, mean throughput %.0f Mbps\n",
                    ctrls[i].c_str(), res.trials[i].value.reliability,
                    res.trials[i].value.mean_throughput_bps / 1e6);
      }
    });
  }
  return 0;
}
