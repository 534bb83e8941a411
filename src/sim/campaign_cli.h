// The shared front end of every engine-driven bench binary: the
// command-line grammar, and run_campaign(), which runs one campaign under
// the durability and distributed flags and prints its report.
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
//   --resume BASE      durable execution: checkpoint every completed trial
//                      to the journal BASE.<campaign>.journal and, when
//                      that journal already exists (from an interrupted
//                      run of the SAME campaign: name, seed, trials, seed
//                      policy, and config fingerprint must all match),
//                      replay the completed trials and run only the
//                      missing ones. Combined with --freeze-timing the
//                      resumed output is byte-identical to an
//                      uninterrupted run. Mismatched journals exit(2).
//   --trial-retries N  re-run a trial whose body throws up to N extra
//                      times (same deterministic Rng stream) before
//                      quarantining it; a quarantined trial keeps its slot
//                      but is excluded from aggregates and reported under
//                      "failures" instead of aborting the sweep.
//   --freeze-timing    zero all wall/cpu timing fields in the JSON record
//                      so output is a pure function of (spec, seed) --
//                      for byte-diffing runs (crash/resume tests, CI).
//   --shard I/N        distributed campaigns: this process runs only the
//                      trials shard I of N owns (strided: index % N == I)
//                      and checkpoints them into
//                      BASE.<campaign>.shard-I-of-N.journal. Requires
//                      --resume BASE (the shard journal IS the worker's
//                      output). Trial randomness derives purely from
//                      (seed, index), so shard trials are bit-identical
//                      to the 1-process run's.
//   --merge BASE       merge the shard journals written under --resume
//                      BASE back into the unsharded journal
//                      BASE.<campaign>.journal (validating that every
//                      shard belongs to this campaign and the shard set
//                      is disjoint and covering -- violations exit(2)
//                      naming the offending field), then replay it
//                      through the engine: completed trials restore
//                      bit-exactly, missing ones (crashed before
//                      checkpoint, or quarantined -- quarantine is never
//                      journaled) re-run live. With --freeze-timing the
//                      merged JSON is byte-identical to the 1-process
//                      run. Mutually exclusive with --shard and --resume.
//   --list             print the registered scenario/controller names and
//                      the fault presets, then exit.
// and ends each campaign's report with one JSON line (sweep timing,
// per-trial wall-clock and LinkSummary values, aggregate) for machine
// consumption. Benches that parse this grammar but run no journaled
// engine campaign (bench_network, bench_streaming) exit(2) on the flags
// they cannot honour, through reject_flags().
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
#include "sim/shard.h"

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
  std::string resume;       ///< journal base path; empty = no checkpoints
  std::size_t trial_retries = 0;
  bool freeze_timing = false;
  ShardPlan shard;          ///< --shard I/N; disabled = not a shard worker
  std::string merge;        ///< --merge BASE; empty = no merge
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
  kTrials,        ///< --trials
  kFaults,        ///< --faults
  kResume,        ///< --resume
  kTrialRetries,  ///< --trial-retries
  kShard,         ///< --shard
  kMerge,         ///< --merge
};

/// For a bench that parses the shared grammar but does not run what
/// those flags act on: print "<prog>: <flag> is not supported by <what>"
/// for each of `flags` that the command line set away from its default,
/// then exit 2 if any was. A bench never silently ignores a flag.
void reject_flags(const SweepCliOptions& opts,
                  std::initializer_list<CampaignFlag> flags, const char* prog,
                  const char* what);

/// Apply the CLI's registry/jobs/faults overrides onto a bench's default
/// spec. trials/seed are NOT applied here -- their meaning varies per
/// bench (repetitions per scheme, scheme-matrix width, ...), so benches
/// resolve them explicitly from the options.
void apply_cli(const SweepCliOptions& opts, ExperimentSpec& spec);

/// Run one engine campaign under the CLI's durability and distributed
/// options; prints nothing to stdout.
///
/// --json-out: the record is staged in an AtomicFile during the run
/// (preserving any content the file already holds, so several campaigns
/// in one process keep appending) and committed -- fsync + rename -- when
/// the campaign completes. An unwritable path exits(2) BEFORE the sweep
/// runs; a crash mid-campaign leaves the previous file intact.
///
/// --resume: opens (or creates) the campaign's fingerprint-keyed journal,
/// replays completed trials, runs only the missing ones, and checkpoints
/// each newly completed trial. A journal from a different campaign
/// exits(2); campaigns that record per-tick samples cannot resume and
/// exit(2) with an explanation.
///
/// --shard I/N: like --resume, but into the shard's own journal
/// (BASE.<campaign>.shard-I-of-N.journal) and running only the owned
/// trials. record_samples is forced off (per-tick samples cannot be
/// journaled; the JSON record never contained them, so its bytes are
/// unchanged).
///
/// --merge BASE: discover + validate the campaign's shard journals, write
/// the merged unsharded journal, then replay it through the engine --
/// journaled trials restore bit-exactly, missing ones re-run live under
/// the same retry flag (deterministic failures re-quarantine
/// identically). Invalid shard sets exit(2) naming the offending field.
EngineResult run_campaign(ExperimentSpec spec, const SweepCliOptions& opts);

/// A bench's human-readable report of one campaign (tables, anchors).
using FigureReport = std::function<void(const EngineResult&)>;

/// Run one campaign and report it: figure(result) in a plain run; in a
/// shard worker or merger, which have no per-tick samples and hold
/// default summaries in non-owned slots, a progress note on stderr
/// instead. The campaign's JSON line then goes to stdout in every role.
void run_campaign(const ExperimentSpec& spec, const SweepCliOptions& opts,
                  const FigureReport& figure);

}  // namespace mmr::sim
