#include "sim/campaign_cli.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/atomic_file.h"
#include "common/parse.h"
#include "dsp/backend.h"
#include "sim/faults.h"
#include "sim/journal.h"
#include "sim/telemetry.h"

namespace mmr::sim {
namespace {

[[noreturn]] void exit_invalid_value(const char* flag, const char* value,
                                     const char* prog, const char* expected) {
  std::fprintf(stderr, "%s: invalid value for %s: '%s' (expected %s)\n",
               prog, flag, value == nullptr ? "" : value, expected);
  std::exit(2);
}

void print_registries() {
  std::printf("registered scenarios:\n");
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("registered controllers:\n");
  for (const std::string& name : ControllerRegistry::instance().names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("fault presets:\n");
  for (const std::string& name : fault_preset_names()) {
    std::printf("  %s\n", name.c_str());
  }
}

void require_fault_preset(const std::string& name, const char* prog) {
  try {
    (void)fault_preset(name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    std::exit(2);
  }
}

/// Validate and APPLY a --kernel-backend value. Unlike the
/// MMR_KERNEL_BACKEND environment override (which warns and falls back,
/// so fleet-wide env settings stay safe on mixed machines), the explicit
/// flag is an A/B-measurement instrument: silently benchmarking the
/// wrong backend would corrupt the comparison, so unknown or
/// unsupported-on-this-CPU names exit(2).
void apply_kernel_backend(const std::string& name, const char* prog) {
  const std::optional<dsp::Backend> parsed = dsp::parse_backend(name);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "%s: unknown --kernel-backend '%s' (expected scalar, "
                 "portable, avx2, neon, or auto)\n",
                 prog, name.c_str());
    std::exit(2);
  }
  if (!dsp::set_backend(*parsed)) {
    std::fprintf(stderr,
                 "%s: --kernel-backend %s is not executable on this "
                 "machine (not compiled in, or missing CPU support)\n",
                 prog, std::string(dsp::backend_name(*parsed)).c_str());
    std::exit(2);
  }
}

/// A shard worker or merger: journals every trial, records no per-tick
/// samples, and reports with a stderr note instead of the figure.
bool distributed_role(const SweepCliOptions& opts) {
  return opts.shard.enabled() || !opts.merge.empty();
}

/// --shard-queue: initialise the queue (--shards), claim a shard, and
/// start the heartbeat that keeps the claim's lease fresh. Runs once per
/// options object: the claimed shard stays in opts.shard.
void claim_queued_shard(SweepCliOptions& opts, const std::string& campaign) {
  LeaseOptions lease_opts;
  if (opts.lease_ttl_s > 0.0) lease_opts.ttl_s = opts.lease_ttl_s;
  try {
    if (opts.shards > 0) ShardQueue::init(opts.shard_queue, opts.shards);
    const std::optional<ShardPlan> claimed =
        ShardQueue::claim(opts.shard_queue, lease_opts);
    if (!claimed.has_value()) {
      std::fprintf(stderr,
                   "%s: shard queue '%s' has no unclaimed shards; nothing "
                   "to do\n",
                   campaign.c_str(), opts.shard_queue.c_str());
      std::exit(0);
    }
    opts.shard = *claimed;
    opts.lease_keeper = std::make_shared<ShardLeaseKeeper>(
        opts.shard_queue, opts.shard, lease_opts);
    std::fprintf(stderr, "%s: claimed %s from '%s'\n", campaign.c_str(),
                 opts.shard.suffix().c_str(), opts.shard_queue.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: shard queue error: %s\n", campaign.c_str(),
                 e.what());
    std::exit(2);
  }
}

/// --merge: merge the campaign's shard journals into the unsharded
/// journal `merged` and open it for replay.
std::unique_ptr<CampaignJournal> open_merged_journal(
    const ExperimentSpec& spec, const SweepCliOptions& opts) {
  const std::string merged = journal_path(opts.merge, spec.name);
  std::vector<std::string> shard_paths;
  try {
    // --watch waits for the fleet: poll until every shard journal exists
    // and carries an intact seal, then merge the finished set.
    shard_paths = opts.watch ? watch_shard_journals(merged, spec.name)
                             : discover_shard_journals(merged);
  } catch (const JournalMismatchError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  if (shard_paths.empty()) {
    std::fprintf(stderr,
                 "no shard journals found for campaign '%s' under base "
                 "'%s' (expected %s)\n",
                 spec.name.c_str(), opts.merge.c_str(),
                 shard_journal_path(opts.merge, spec.name, ShardPlan{0, 1})
                     .c_str());
    std::exit(2);
  }
  try {
    const MergeStats stats =
        merge_journals(shard_paths, merged, campaign_key(spec));
    std::fprintf(stderr,
                 "merged %zu shard journals for campaign '%s': %zu "
                 "trials checkpointed, %zu to re-run\n",
                 stats.shard_count, spec.name.c_str(), stats.merged_trials,
                 stats.missing_trials);
    return std::make_unique<CampaignJournal>(merged, campaign_key(spec));
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "cannot merge shard journals for campaign '%s': %s\n",
                 spec.name.c_str(), e.what());
    std::exit(2);
  }
}

/// --resume (and --shard): open or create the campaign's journal.
std::unique_ptr<CampaignJournal> open_resume_journal(
    const ExperimentSpec& spec, const SweepCliOptions& opts) {
  if (spec.record_samples) {
    std::fprintf(stderr,
                 "--resume is not supported for campaign '%s': it records "
                 "per-tick samples, which the journal does not replay\n",
                 spec.name.c_str());
    std::exit(2);
  }
  const std::string path =
      opts.shard.enabled()
          ? shard_journal_path(opts.resume, spec.name, opts.shard)
          : journal_path(opts.resume, spec.name);
  try {
    return std::make_unique<CampaignJournal>(path, campaign_key(spec),
                                             opts.shard);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot resume from journal %s: %s\n", path.c_str(),
                 e.what());
    std::exit(2);
  }
}

/// Emit a campaign's JSON record to stdout (the report's final line).
void emit_json(const std::string& name, const EngineResult& r) {
  JsonLinesSink sink(std::cout);
  SweepRecord record;
  record.name = name;
  record.trials = r.trials;
  record.timing = r.timing;
  record.labels = r.labels;
  record.failures = r.failures;
  sink.on_sweep(record);
}

/// Stderr progress note for a distributed role (shard worker / merger).
void emit_distributed(const SweepCliOptions& opts, const std::string& name,
                      const EngineResult& r) {
  if (opts.shard.enabled()) {
    std::fprintf(stderr,
                 "%s: %s done: %zu trials owned (%zu replayed from the "
                 "journal), %zu skipped (other shards)\n",
                 name.c_str(), opts.shard.suffix().c_str(),
                 r.trials.size() - r.skipped_trials, r.replayed_trials,
                 r.skipped_trials);
  } else {
    std::fprintf(stderr,
                 "%s: merge done: %zu trials (%zu replayed from shard "
                 "journals, %zu re-run), %zu failures\n",
                 name.c_str(), r.trials.size(), r.replayed_trials,
                 r.trials.size() - r.replayed_trials, r.failures.size());
  }
}

}  // namespace

const char* flag_value(int& i, int argc, char** argv, const char* flag) {
  const std::size_t flag_len = std::strlen(flag);
  if (std::strncmp(argv[i], flag, flag_len) == 0) {
    if (argv[i][flag_len] == '=') return argv[i] + flag_len + 1;
    if (argv[i][flag_len] == '\0' && i + 1 < argc) return argv[++i];
  }
  return nullptr;
}

std::size_t require_size(const char* flag, const char* value,
                         const char* prog) {
  std::size_t out = 0;
  if (value == nullptr || !parse_size(value, out)) {
    exit_invalid_value(flag, value, prog, "a non-negative base-10 integer");
  }
  return out;
}

std::uint64_t require_u64(const char* flag, const char* value,
                          const char* prog) {
  std::uint64_t out = 0;
  if (value == nullptr || !parse_u64(value, out)) {
    exit_invalid_value(flag, value, prog, "a non-negative base-10 integer");
  }
  return out;
}

double require_f64(const char* flag, const char* value, const char* prog) {
  double out = 0.0;
  if (value == nullptr || !parse_f64(value, out)) {
    exit_invalid_value(flag, value, prog,
                       "a non-negative finite base-10 number");
  }
  return out;
}

SweepCliOptions parse_sweep_cli(int argc, char** argv,
                                const ExtraFlagHandler& extra,
                                const char* extra_usage) {
  SweepCliOptions opts;
  const char* prog = argv[0];
  for (int i = 1; i < argc; ++i) {
    // Bench-specific flags win over sweep-wide ones so a bench that
    // already owns a spelling (bench_streaming's --shards counts
    // StreamingSpec shards) keeps its meaning.
    if (extra && extra(i, argc, argv)) {
      continue;
    }
    if (std::strcmp(argv[i], "--list") == 0) {
      print_registries();
      std::exit(0);
    } else if (std::strcmp(argv[i], "--freeze-timing") == 0) {
      opts.freeze_timing = true;
    } else if (const char* v = flag_value(i, argc, argv, "--jobs")) {
      opts.jobs = require_size("--jobs", v, prog);
    } else if (const char* v2 = flag_value(i, argc, argv, "--trials")) {
      opts.trials = require_size("--trials", v2, prog);
    } else if (const char* v3 = flag_value(i, argc, argv, "--seed")) {
      opts.seed = require_u64("--seed", v3, prog);
    } else if (const char* v4 = flag_value(i, argc, argv, "--scenario")) {
      opts.scenario = v4;
    } else if (const char* v5 = flag_value(i, argc, argv, "--controller")) {
      opts.controller = v5;
    } else if (const char* v6 = flag_value(i, argc, argv, "--faults")) {
      opts.faults = v6;
      // Validate eagerly so a typo fails before any sweep runs.
      require_fault_preset(opts.faults, prog);
    } else if (const char* v7 = flag_value(i, argc, argv, "--json-out")) {
      opts.json_out = v7;
    } else if (const char* v8 = flag_value(i, argc, argv, "--resume")) {
      opts.resume = v8;
      if (opts.resume.empty()) {
        std::fprintf(stderr, "%s: --resume needs a journal base path\n",
                     prog);
        std::exit(2);
      }
    } else if (const char* v9 = flag_value(i, argc, argv, "--trial-retries")) {
      opts.trial_retries = require_size("--trial-retries", v9, prog);
    } else if (const char* v10 =
                   flag_value(i, argc, argv, "--trial-timeout-s")) {
      opts.trial_timeout_s = require_f64("--trial-timeout-s", v10, prog);
    } else if (const char* v11 =
                   flag_value(i, argc, argv, "--kernel-backend")) {
      opts.kernel_backend = v11;
      // Validated AND applied eagerly: the backend switch is process
      // global and must land before any sweep warms kernel caches.
      apply_kernel_backend(opts.kernel_backend, prog);
    } else if (const char* v12 = flag_value(i, argc, argv, "--shard-queue")) {
      opts.shard_queue = v12;
      if (opts.shard_queue.empty()) {
        std::fprintf(stderr, "%s: --shard-queue needs a directory\n", prog);
        std::exit(2);
      }
    } else if (const char* v13 = flag_value(i, argc, argv, "--shards")) {
      opts.shards = require_size("--shards", v13, prog);
      if (opts.shards == 0) {
        std::fprintf(stderr, "%s: --shards needs at least 1 shard\n", prog);
        std::exit(2);
      }
    } else if (const char* v14 = flag_value(i, argc, argv, "--shard")) {
      const std::optional<ShardPlan> plan = ShardPlan::parse(v14);
      if (!plan.has_value()) {
        std::fprintf(stderr,
                     "%s: invalid value for --shard: '%s' (expected I/N "
                     "with base-10 I < N, e.g. 0/3)\n",
                     prog, v14);
        std::exit(2);
      }
      opts.shard = *plan;
    } else if (const char* v15 = flag_value(i, argc, argv, "--merge")) {
      opts.merge = v15;
      if (opts.merge.empty()) {
        std::fprintf(stderr, "%s: --merge needs a journal base path\n", prog);
        std::exit(2);
      }
    } else if (const char* v16 = flag_value(i, argc, argv, "--lease-ttl-s")) {
      opts.lease_ttl_s = require_f64("--lease-ttl-s", v16, prog);
      if (opts.lease_ttl_s <= 0.0) {
        std::fprintf(stderr, "%s: --lease-ttl-s needs a positive TTL\n",
                     prog);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      opts.watch = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--trials N] [--seed S]\n"
                   "          [--scenario NAME] [--controller NAME]\n"
                   "          [--faults NAME] [--kernel-backend B]\n"
                   "          [--json-out FILE]\n"
                   "          [--resume BASE] [--trial-retries N]\n"
                   "          [--trial-timeout-s X] [--freeze-timing]\n"
                   "          [--shard I/N | --shard-queue DIR "
                   "[--shards N] [--lease-ttl-s X]]\n"
                   "          [--merge BASE [--watch]]\n"
                   "          [--list]%s%s\n"
                   "unknown argument: %s\n",
                   prog, extra_usage != nullptr ? "\n" : "",
                   extra_usage != nullptr ? extra_usage : "", argv[i]);
      std::exit(2);
    }
  }
  // Distributed-flag constraints: one role per invocation.
  if (opts.shard.enabled() && !opts.shard_queue.empty()) {
    std::fprintf(stderr,
                 "%s: --shard and --shard-queue are mutually exclusive "
                 "(name the shard or claim it from the queue, not both)\n",
                 prog);
    std::exit(2);
  }
  if (opts.shards > 0 && opts.shard_queue.empty()) {
    std::fprintf(stderr, "%s: --shards requires --shard-queue DIR\n", prog);
    std::exit(2);
  }
  if (!opts.merge.empty() &&
      (opts.shard.enabled() || !opts.shard_queue.empty() ||
       !opts.resume.empty())) {
    std::fprintf(stderr,
                 "%s: --merge is a standalone role; it cannot be combined "
                 "with --shard, --shard-queue, or --resume\n",
                 prog);
    std::exit(2);
  }
  if ((opts.shard.enabled() || !opts.shard_queue.empty()) &&
      opts.resume.empty()) {
    std::fprintf(stderr,
                 "%s: --shard/--shard-queue require --resume BASE (the "
                 "shard journal is the worker's output)\n",
                 prog);
    std::exit(2);
  }
  if (opts.lease_ttl_s > 0.0 && opts.shard_queue.empty()) {
    std::fprintf(stderr,
                 "%s: --lease-ttl-s requires --shard-queue DIR (leases "
                 "only exist on queue-claimed shards)\n",
                 prog);
    std::exit(2);
  }
  if (opts.watch && opts.merge.empty()) {
    std::fprintf(stderr, "%s: --watch requires --merge BASE\n", prog);
    std::exit(2);
  }
  return opts;
}

void apply_cli(const SweepCliOptions& opts, ExperimentSpec& spec) {
  spec.jobs = opts.jobs;
  if (!opts.scenario.empty()) spec.scenario.name = opts.scenario;
  if (!opts.controller.empty()) spec.controller.name = opts.controller;
  if (!opts.faults.empty()) spec.run.faults = fault_preset(opts.faults);
}

EngineResult run_campaign(ExperimentSpec spec, SweepCliOptions& opts) {
  apply_cli(opts, spec);
  if (!opts.shard_queue.empty() && !opts.shard.enabled()) {
    claim_queued_shard(opts, spec.name);
  }
  EngineOptions eng_opts;
  eng_opts.trial_retries = opts.trial_retries;
  eng_opts.trial_timeout_s = opts.trial_timeout_s;
  eng_opts.freeze_timing = opts.freeze_timing;
  // Distributed roles journal every trial, and journals cannot replay
  // per-tick samples. Dropping them does not change the JSON record
  // (JsonLinesSink only reads samples in per-tick mode), so the merged
  // output stays byte-identical to the 1-process run. Forced BEFORE
  // campaign_key: record_samples is fingerprinted, and worker and merger
  // must agree on it.
  if (distributed_role(opts)) spec.record_samples = false;
  std::unique_ptr<CampaignJournal> journal;
  if (!opts.merge.empty()) {
    journal = open_merged_journal(spec, opts);
  } else if (!opts.resume.empty()) {
    journal = open_resume_journal(spec, opts);
    eng_opts.shard = opts.shard;
  }
  eng_opts.journal = journal.get();
  Engine engine;
  if (opts.json_out.empty()) return engine.run(spec, nullptr, eng_opts);
  // Stage previous content + the new record; committed atomically below.
  AtomicFile file(opts.json_out);
  {
    std::ifstream existing(opts.json_out, std::ios::binary);
    if (existing && existing.peek() != std::ifstream::traits_type::eof()) {
      file.stream() << existing.rdbuf();
    }
  }
  // Fail fast (exit 2, like the numeric-parse errors) if the destination
  // is not writable, BEFORE burning a sweep: probe with an append-mode
  // open that touches nothing on success.
  {
    std::ofstream probe(opts.json_out, std::ios::app);
    if (!probe) {
      std::fprintf(stderr, "cannot open --json-out file: %s\n",
                   opts.json_out.c_str());
      std::exit(2);
    }
  }
  JsonLinesSink file_sink(file.stream());
  EngineResult result = engine.run(spec, &file_sink, eng_opts);
  try {
    file.commit();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot write --json-out file: %s\n", e.what());
    std::exit(2);
  }
  return result;
}

void run_campaign(const ExperimentSpec& spec, SweepCliOptions& opts,
                  const FigureReport& figure) {
  const EngineResult result = run_campaign(spec, opts);
  if (distributed_role(opts)) {
    emit_distributed(opts, spec.name, result);
  } else {
    figure(result);
  }
  emit_json(spec.name, result);
}

}  // namespace mmr::sim
