// Deterministic parallel Monte-Carlo sweep engine.
//
// SweepRunner fans N independent trials across a work-stealing ThreadPool
// and guarantees that the per-trial results are BIT-IDENTICAL to a serial
// run of the same sweep:
//   * every trial draws from an Rng stream derived purely from
//     (base_seed, trial index) via Rng::fork(stream_id), so scheduling
//     order cannot perturb random draws;
//   * trials share no mutable state -- each builds its own world and
//     controller and writes its result into an index-addressed slot;
//   * aggregation happens after the barrier, walking trials in index
//     order, so floating-point reductions are order-stable too.
// jobs=1 therefore produces exactly the same bytes as jobs=K.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/metrics.h"

namespace mmr::sim {

struct SweepConfig {
  std::size_t num_trials = 1;
  /// Worker threads; 1 runs inline on the calling thread, 0 means
  /// ThreadPool::hardware_jobs().
  std::size_t jobs = 1;
  /// Root of the per-trial stream derivation (see TrialContext).
  std::uint64_t base_seed = 1;
};

/// Everything a trial may depend on. `stream_seed` is
/// Rng::derive_stream_seed(base_seed, index); `rng` is an Rng seeded with
/// it. Trials must take all randomness from these (or from constants) --
/// never from globals, time, or shared generators.
struct TrialContext {
  std::size_t index = 0;
  std::uint64_t stream_seed = 0;
  Rng rng;
};

template <typename T>
struct SweepTrial {
  std::size_t index = 0;
  double wall_s = 0.0;  ///< this trial's own wall-clock time
  /// CPU time of the worker thread while running this trial. Unlike
  /// wall_s it does not inflate when workers timeshare a core, so it is
  /// the honest per-trial cost estimate.
  double cpu_s = 0.0;
  T value{};
};

struct SweepTiming {
  double wall_s = 0.0;  ///< whole-sweep wall-clock
  /// Sum of per-trial CPU times: what a serial run of the same trials
  /// would cost. speedup() stays ~1 on an oversubscribed single core
  /// (where per-trial wall-clock would claim a bogus jobs-fold win).
  double serial_equivalent_s = 0.0;
  std::size_t jobs = 1;
  /// Parallel efficiency: how much faster the sweep ran than executing
  /// its trials back-to-back on one thread.
  double speedup() const {
    return wall_s > 0.0 ? serial_equivalent_s / wall_s : 1.0;
  }
};

/// CPU time consumed so far by the calling thread [s] (falls back to
/// wall-clock where no thread CPU clock exists).
double thread_cpu_now_s();

/// --freeze-timing: zero the sweep's wall-clock and serial-equivalent
/// time and every trial's wall/cpu time, so a record is a pure function
/// of (spec, seed).
template <typename T>
void freeze_sweep_timing(SweepTiming& timing,
                         std::vector<SweepTrial<T>>& trials) {
  timing.wall_s = 0.0;
  timing.serial_equivalent_s = 0.0;
  for (SweepTrial<T>& trial : trials) {
    trial.wall_s = 0.0;
    trial.cpu_s = 0.0;
  }
}

class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig config);

  const SweepConfig& config() const { return config_; }
  /// Resolved worker count (config jobs with 0 mapped to hardware).
  std::size_t jobs() const { return jobs_; }
  /// Timing of the most recent run().
  const SweepTiming& timing() const { return timing_; }

  /// Run fn(TrialContext&) once per trial; results come back in trial
  /// index order regardless of which worker ran what. Exceptions from
  /// trial bodies propagate (lowest trial index first).
  template <typename Fn>
  auto run(Fn&& fn)
      -> std::vector<SweepTrial<std::invoke_result_t<Fn&, TrialContext&>>> {
    using R = std::invoke_result_t<Fn&, TrialContext&>;
    std::vector<SweepTrial<R>> trials(config_.num_trials);
    const auto sweep_start = std::chrono::steady_clock::now();
    auto one_trial = [&](std::size_t i) {
      TrialContext ctx;
      ctx.index = i;
      ctx.stream_seed = Rng::derive_stream_seed(config_.base_seed, i);
      ctx.rng = Rng(ctx.stream_seed);
      const auto trial_start = std::chrono::steady_clock::now();
      const double cpu_start = thread_cpu_now_s();
      trials[i].value = fn(ctx);
      trials[i].index = i;
      trials[i].cpu_s = thread_cpu_now_s() - cpu_start;
      trials[i].wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        trial_start)
              .count();
    };
    if (jobs_ <= 1 || config_.num_trials <= 1) {
      for (std::size_t i = 0; i < config_.num_trials; ++i) one_trial(i);
    } else {
      ThreadPool pool(std::min(jobs_, config_.num_trials));
      pool.parallel_for(config_.num_trials, one_trial);
    }
    timing_.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();
    timing_.serial_equivalent_s = 0.0;
    for (const auto& trial : trials) {
      timing_.serial_equivalent_s += trial.cpu_s;
    }
    timing_.jobs = jobs_;
    return trials;
  }

 private:
  SweepConfig config_;
  std::size_t jobs_ = 1;
  SweepTiming timing_;
};

/// A trial that exhausted its retry budget during a durable campaign: it
/// is QUARANTINED. Quarantined trials keep their slot in the sweep (with
/// a default-constructed value) so indices stay stable, but are excluded
/// from aggregates and reported out-of-band.
struct TrialFailure {
  std::size_t index = 0;
  /// The trial's deterministic Rng stream seed -- enough to re-run exactly
  /// this trial in isolation (`--seed` stays the campaign seed; the stream
  /// is derived from (seed, index)).
  std::uint64_t stream_seed = 0;
  /// Attempts made (1 + retries consumed).
  std::size_t attempts = 1;
  /// what() of the last exception.
  std::string error;
};

/// Order-stable aggregate over a sweep of LinkSummary trials (computed by
/// walking trials in index order; identical for any jobs count).
struct SweepSummary {
  std::size_t num_trials = 0;
  double mean_reliability = 0.0;
  double median_reliability = 0.0;
  double p25_reliability = 0.0;
  double p75_reliability = 0.0;
  /// Median of per-trial (1 - reliability): the sweep's outage figure.
  double median_outage = 0.0;
  double mean_throughput_bps = 0.0;
  double median_throughput_bps = 0.0;
  double mean_trp_bps = 0.0;    ///< throughput-reliability product
  double median_trp_bps = 0.0;
};

SweepSummary summarize_sweep(
    std::span<const SweepTrial<core::LinkSummary>> trials);

/// summarize_sweep over the trials `failures` does not name: quarantined
/// trials keep their slot but stay out of the aggregate. An empty
/// SweepSummary when every trial was quarantined.
SweepSummary summarize_survivors(
    std::span<const SweepTrial<core::LinkSummary>> trials,
    std::span<const TrialFailure> failures);

/// Emit the bench JSON record: sweep timing (per-trial wall-clock,
/// serial-equivalent time, speedup), per-trial LinkSummary values, and the
/// aggregate. `labels` (optional, one per trial) tags trials with e.g. a
/// scheme name.
///
/// `failures` (optional, in index order) reports quarantined trials from
/// a durable campaign. When non-empty, quarantined trial entries gain
/// a `"failed": true` field, the aggregate is computed over the surviving
/// trials only, and a trailing `"failures": [...]` array carries the
/// details. When empty (every pre-existing caller) the emitted bytes are
/// unchanged.
void write_sweep_json(std::ostream& os, const std::string& bench_name,
                      std::span<const SweepTrial<core::LinkSummary>> trials,
                      const SweepTiming& timing,
                      std::span<const std::string> labels = {},
                      std::span<const TrialFailure> failures = {});

/// `s` escaped for the body of a JSON string: `"` and `\` gain a
/// backslash and a newline becomes `\n` (exception texts can be
/// multi-line). The one escaper of the sweep JSON, the telemetry lines
/// and the campaign journal.
std::string json_escape(const std::string& s);

}  // namespace mmr::sim
