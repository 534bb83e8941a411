// The shared front end of every engine-driven bench binary: the
// command-line grammar, and run_campaign(), which runs one campaign and
// prints its report.
//
// Every campaign bench accepts:
//   --jobs N           worker threads for the Monte-Carlo sweep (0 = all
//                      hardware threads; default 1 = serial). Parallel
//                      output is bit-identical to serial for the same seed.
//   --trials N         scale the per-scheme trial count where the bench
//                      sweeps seeds (0 = keep the bench's default).
//   --seed S           override the sweep's base seed (0 = bench default).
//   --scenario NAME    override the campaign's registered scenario.
//   --controller NAME  override the campaign's registered controller.
//   --faults NAME      apply a named fault preset ("none", "light",
//                      "moderate", "heavy") to every run's probe/CSI path.
//   --kernel-backend B force the dsp kernel backend ("scalar", "portable",
//                      "avx2", "neon", or "auto" = CPUID best). Unknown
//                      names exit(2); a backend this binary/CPU cannot
//                      execute exit(2)s too -- forcing is for A/B
//                      measurement and must not silently fall back. Same
//                      effect as MMR_KERNEL_BACKEND in the environment
//                      (which DOES fall back with a warning, so one
//                      setting is safe on mixed machines). Goldens are
//                      scalar-backend; figure outputs on fast backends
//                      agree within the declared kernel tolerances (see
//                      DESIGN.md).
//   --json-out FILE    additionally write the JSON record(s) to FILE,
//                      atomically (write-temp + fsync + rename): a crash
//                      leaves either the previous FILE or the complete new
//                      one, never a truncated record.
//   --freeze-timing    zero all wall/cpu timing fields in the JSON record
//                      so output is a pure function of (spec, seed) --
//                      for byte-diffing runs (tests, CI).
//   --list             print the registered scenario/controller names and
//                      the fault presets, then exit.
// and ends each campaign's report with one JSON line (sweep timing,
// per-trial wall-clock and LinkSummary values, aggregate) for machine
// consumption. A trial that throws is quarantined: the line marks it
// `"failed": true` and lists it under "failures" with its index, stream
// seed and error. Benches that parse this grammar but run no engine
// campaign (bench_streaming) exit(2) on the flags they cannot honour,
// through reject_flags(); any other argument exits(2) with "unknown
// argument".
//
// Numeric flags are validated strictly (common/parse.h): signs,
// whitespace, trailing garbage, and out-of-range values exit(2) with a
// message instead of being silently truncated to something surprising
// (`--jobs abc` used to parse as 0 = every hardware thread).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>

#include "sim/engine.h"

namespace mmr::sim {

struct SweepCliOptions {
  std::size_t jobs = 1;
  std::size_t trials = 0;   ///< 0 = bench default
  std::uint64_t seed = 0;   ///< 0 = bench default
  std::string scenario;     ///< empty = bench default
  std::string controller;   ///< empty = bench default
  std::string faults;       ///< fault preset name; empty = no faults
  std::string kernel_backend;  ///< forced dsp backend; empty = default
  std::string json_out;     ///< empty = stdout only
  bool freeze_timing = false;
};

/// The value of `flag` when argv[i] spells it: "--flag=V" yields V, and
/// "--flag V" yields V and advances i past it. nullptr when argv[i] is
/// another argument or "--flag" has no value after it.
const char* flag_value(int& i, int argc, char** argv, const char* flag);

/// Strict numeric flag values: a malformed or out-of-range `value` (or a
/// null one) prints "<prog>: invalid value for <flag>: ..." and exits 2.
std::size_t require_size(const char* flag, const char* value,
                         const char* prog);
std::uint64_t require_u64(const char* flag, const char* value,
                          const char* prog);
double require_f64(const char* flag, const char* value, const char* prog);

/// Hook for bench-specific flags layered onto the shared parser: called
/// for every argument before the shared grammar sees it, with `i`
/// positioned on that argument (consume a separate value by advancing
/// `i`, e.g. through flag_value()). Return true when the argument was
/// handled; false lets the shared grammar try it. `extra_usage`
/// (optional) is appended to the usage text.
using ExtraFlagHandler = std::function<bool(int& i, int argc, char** argv)>;

/// Parse the shared grammar. Usage errors print to stderr and exit 2;
/// --list prints the registries and exits 0. The only other effect is
/// --kernel-backend, which switches the process-global kernel backend
/// so it lands before any campaign warms kernel caches.
SweepCliOptions parse_sweep_cli(int argc, char** argv,
                                const ExtraFlagHandler& extra = nullptr,
                                const char* extra_usage = nullptr);

/// Shared flags that only an engine campaign honours.
enum class CampaignFlag {
  kTrials,  ///< --trials
  kFaults,  ///< --faults
};

/// For a bench that parses the shared grammar but does not run what
/// those flags act on: print "<prog>: <flag> is not supported by <what>"
/// for each of `flags` that the command line set away from its default,
/// then exit 2 if any was. A bench never silently ignores a flag.
void reject_flags(const SweepCliOptions& opts,
                  std::initializer_list<CampaignFlag> flags, const char* prog,
                  const char* what);

/// Apply the CLI's registry/jobs/faults/freeze-timing overrides onto a
/// bench's default spec. trials/seed are NOT applied here -- their
/// meaning varies per bench (repetitions per scheme, scheme-matrix width,
/// ...), so benches resolve them explicitly from the options.
void apply_cli(const SweepCliOptions& opts, ExperimentSpec& spec);

/// Run one engine campaign under the CLI's options; prints nothing to
/// stdout.
///
/// --json-out: the record is staged in an AtomicFile during the run
/// (preserving any content the file already holds, so several campaigns
/// in one process keep appending) and committed -- fsync + rename -- when
/// the campaign completes. An unwritable path exits(2) BEFORE the sweep
/// runs; a crash mid-campaign leaves the previous file intact.
EngineResult run_campaign(ExperimentSpec spec, const SweepCliOptions& opts);

/// A bench's human-readable report of one campaign (tables, anchors).
using FigureReport = std::function<void(const EngineResult&)>;

/// Run one campaign and report it: figure(result), then the campaign's
/// JSON line on stdout.
void run_campaign(const ExperimentSpec& spec, const SweepCliOptions& opts,
                  const FigureReport& figure);

}  // namespace mmr::sim
