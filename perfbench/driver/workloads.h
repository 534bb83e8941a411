// The benchmark's workloads (see perfbench/README.md for why each
// exists and which layers it stresses).
//
// Every workload is single-process, jobs=1 and closed loop: the next
// operation starts when the previous one finishes. An operation ("op") is
// a campaign trial (campaign_fig18), a network trial (network_handover)
// or a service epoch (service_churn).
// Inputs derive from the seed only: round r of a campaign uses
// Rng::derive_stream_seed(seed, r).
//
// A run is time-boxed, but simulated outcomes and exact counts come from a
// fixed outcome horizon (the first rounds or epochs), which always runs to
// completion, so they repeat exactly for a seed however fast the machine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "driver/timing.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Measurement time box [s]; the outcome horizon always completes.
  double seconds = 10.0;
  /// Traced run: alternate untraced and traced copies of every op,
  /// compare their outputs bit for bit, and record spans.
  bool trace = false;
};

struct Report {
  // --- Untraced measurement ------------------------------------------
  /// The timed ops: latencies, loop time and link-ticks scored, raw and
  /// calibrated to the reference speed.
  TimedLoop timing;

  // --- Simulated outcomes over the outcome horizon -------------------
  /// Fraction of scored link-ticks that were usable (link available and
  /// SNR at or above the outage floor).
  double reliability = 0.0;
  /// Mean delivered throughput per scored link-tick [Mbit/s].
  double tput_mbps = 0.0;

  // --- Correctness ---------------------------------------------------
  std::uint64_t attempted = 0;
  /// Ops that failed a correctness check (quarantined trials included).
  std::uint64_t failed = 0;
  /// Every failed check and degenerate-workload guard, human readable.
  std::vector<std::string> problems;

  // --- Traced run ----------------------------------------------------
  /// The same ops timed untraced and traced [s]; their ratio is the
  /// tracing overhead.
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::uint64_t traced_ops = 0;

  /// Exact counts over the outcome horizon (ticks, joins, handovers...).
  std::vector<std::pair<std::string, double>> counts;
  /// Diagnostics printed beside the result (e.g. trp_gain).
  std::vector<std::pair<std::string, double>> info;

  void problem(std::string what) { problems.push_back(std::move(what)); }
  bool correct() const { return failed == 0 && problems.empty(); }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first op (the set-up time users pay beyond
  /// process start). Campaign workloads build each round's spec in the
  /// loop, so only the service has work here.
  virtual void setup(std::uint64_t seed) { (void)seed; }
  /// The time-boxed measurement (untraced, or traced when opts.trace).
  virtual void run(const RunOptions& opts, Report& report) = 0;
};

std::vector<std::string> workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

/// Process initialisation shared by every workload: register the net-layer
/// builtins and the traced registry entries, and pin the DSP kernel
/// backend to the best one this CPU supports (so a stray
/// MMR_KERNEL_BACKEND cannot change a run). Returns the backend name.
std::string init_process();

}  // namespace perfbench
