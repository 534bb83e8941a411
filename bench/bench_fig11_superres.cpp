// Fig. 11 reproduction: super-resolution per-beam power extraction.
//  (a) MSE of the per-beam power estimate vs relative ToF, including
//      below the 2.5 ns Fourier resolution of a 400 MHz system.
//  (b) Decomposing a measured two-sinc CIR (6 m link, reflector at 30
//      degrees) back into its per-beam components.
#include <cstdio>
#include <iostream>

#include "common/rng.h"
#include "common/streaming_stats.h"
#include "common/table.h"
#include "common/units.h"
#include "core/superres.h"
#include "dsp/sinc.h"
#include "sim/campaign_cli.h"

using namespace mmr;

namespace {

constexpr double kBw = 400e6;
constexpr double kTs = 1.0 / kBw;

CVec synth_cir(std::size_t taps, const std::vector<cplx>& amps,
               const RVec& delays, Rng& rng, double noise_var,
               double jitter_std) {
  CVec cir(taps, cplx{});
  const double jitter = rng.normal(0.0, jitter_std);
  for (std::size_t k = 0; k < amps.size(); ++k) {
    for (std::size_t n = 0; n < taps; ++n) {
      cir[n] += amps[k] * dsp::sampled_sinc_tap(
                              n, kTs, kBw, delays[k] + std::abs(jitter));
    }
  }
  for (cplx& c : cir) c += rng.complex_normal(noise_var);
  return cir;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = sim::parse_sweep_cli(argc, argv);
  std::printf("=== Fig. 11a: per-beam power MSE vs relative ToF ===\n");
  std::printf("(2-path CIR, second path -6 dB; system resolution 2.5 ns)\n");
  Rng rng(7);
  Table t({"rel ToF (ns)", "MSE @ 40 dB SNR", "MSE @ 25 dB SNR",
           "sub-resolution?"});
  for (double tof_ns :
       {0.5, 0.8, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0}) {
    for (int pass = 0; pass < 1; ++pass) {
      StreamingMoments mse_hi, mse_lo;
      const std::vector<cplx> amps{cplx{1.0, 0.0}, std::polar(0.5, 1.1)};
      const RVec delays{0.0, tof_ns * 1e-9};
      const RVec true_p{1.0, 0.25};
      for (int rep = 0; rep < 200; ++rep) {
        for (int noisy = 0; noisy < 2; ++noisy) {
          const double nv = noisy ? 10.0 * 1e-4 / 3.16 : 1e-4;  // 25/40 dB
          const CVec cir =
              synth_cir(24, amps, delays, rng, nv, 0.15e-9);
          const auto fit =
              core::superres_per_beam(cir, delays, kTs, kBw);
          const RVec p = fit.powers();
          double err = 0.0;
          for (std::size_t k = 0; k < 2; ++k) {
            err += (p[k] - true_p[k]) * (p[k] - true_p[k]);
          }
          (noisy ? mse_lo : mse_hi).add(err / 2.0);
        }
      }
      t.add_row({Table::num(tof_ns, 2), Table::num(mse_hi.mean(), 4),
                 Table::num(mse_lo.mean(), 4),
                 tof_ns < 2.5 ? "yes" : "no"});
    }
  }
  t.print(std::cout);
  std::printf("paper shape: MSE stays low even below the 2.5 ns "
              "resolution thanks to the relative-ToF prior.\n");

  std::printf("\n=== Fig. 11b: recovering two sincs from a combined CIR ===\n");
  std::printf("(6 m link + reflector at 30 deg: excess delay ~1.6 ns)\n");
  const std::vector<cplx> amps{cplx{1.0, 0.0}, std::polar(0.55, -0.7)};
  const RVec delays{0.0, 1.6e-9};
  const CVec cir = synth_cir(16, amps, delays, rng, 1e-5, 0.0);
  const auto fit = core::superres_per_beam(cir, delays, kTs, kBw);
  const CVec model = core::reconstruct_cir(fit, 16, kTs, kBw);
  std::printf("%6s %12s %12s\n", "tap", "|measured|", "|model fit|");
  for (std::size_t n = 0; n < 16; ++n) {
    std::printf("%6zu %12.4f %12.4f\n", n, std::abs(cir[n]),
                std::abs(model[n]));
  }
  std::printf("recovered per-beam amplitudes: |a0| = %.3f (true 1.000), "
              "|a1| = %.3f (true 0.550), residual %.4f\n",
              std::abs(fit.alphas[0]), std::abs(fit.alphas[1]), fit.residual);

  std::printf("\n=== superres in the loop: mmReliable across rooms (engine) "
              "===\n");
  {
    // The MSE curves above isolate the solver; this checks it inside the
    // full maintenance loop (the per-beam monitoring of Section 4.3)
    // across independent channel realizations.
    sim::ExperimentSpec spec;
    spec.name = "fig11_superres_link_check";
    spec.scenario.name = "indoor";
    spec.controller.name = "mmreliable";
    spec.run.duration_s = 0.2;
    spec.trials = opts.trials > 0 ? opts.trials : 3;
    spec.seed = opts.seed > 0 ? opts.seed : 5;
    sim::run_campaign(spec, opts, [&](const sim::EngineResult& res) {
      std::printf("%zu rooms: median reliability %.3f, median throughput "
                  "%.0f Mbps\n", spec.trials,
                  res.aggregate.median_reliability,
                  res.aggregate.median_throughput_bps / 1e6);
    });
  }
  return 0;
}
