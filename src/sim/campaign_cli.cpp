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
/// so one env setting stays safe on mixed machines), the explicit
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
    // Bench-specific flags are tried first, so a bench's own spelling
    // wins over the shared grammar's.
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
    } else if (const char* v8 =
                   flag_value(i, argc, argv, "--kernel-backend")) {
      opts.kernel_backend = v8;
      // Validated AND applied eagerly: the backend switch is process
      // global and must land before any sweep warms kernel caches.
      apply_kernel_backend(opts.kernel_backend, prog);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--trials N] [--seed S]\n"
                   "          [--scenario NAME] [--controller NAME]\n"
                   "          [--faults NAME] [--kernel-backend B]\n"
                   "          [--json-out FILE] [--freeze-timing]\n"
                   "          [--list]%s%s\n"
                   "unknown argument: %s\n",
                   prog, extra_usage != nullptr ? "\n" : "",
                   extra_usage != nullptr ? extra_usage : "", argv[i]);
      std::exit(2);
    }
  }
  return opts;
}

void reject_flags(const SweepCliOptions& opts,
                  std::initializer_list<CampaignFlag> flags, const char* prog,
                  const char* what) {
  const struct {
    CampaignFlag flag;
    const char* spelling;
    bool set;
  } known[] = {
      {CampaignFlag::kTrials, "--trials", opts.trials > 0},
      {CampaignFlag::kFaults, "--faults", !opts.faults.empty()},
  };
  bool rejected = false;
  for (const CampaignFlag flag : flags) {
    for (const auto& k : known) {
      if (k.flag != flag || !k.set) continue;
      std::fprintf(stderr, "%s: %s is not supported by %s\n", prog,
                   k.spelling, what);
      rejected = true;
    }
  }
  if (rejected) std::exit(2);
}

void apply_cli(const SweepCliOptions& opts, ExperimentSpec& spec) {
  spec.jobs = opts.jobs;
  if (!opts.scenario.empty()) spec.scenario.name = opts.scenario;
  if (!opts.controller.empty()) spec.controller.name = opts.controller;
  if (!opts.faults.empty()) spec.run.faults = fault_preset(opts.faults);
  if (opts.freeze_timing) spec.freeze_timing = true;
}

EngineResult run_campaign(ExperimentSpec spec, const SweepCliOptions& opts) {
  apply_cli(opts, spec);
  Engine engine;
  if (opts.json_out.empty()) return engine.run(spec);
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
  EngineResult result = engine.run(spec, &file_sink);
  try {
    file.commit();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot write --json-out file: %s\n", e.what());
    std::exit(2);
  }
  return result;
}

void run_campaign(const ExperimentSpec& spec, const SweepCliOptions& opts,
                  const FigureReport& figure) {
  const EngineResult result = run_campaign(spec, opts);
  figure(result);
  emit_json(spec.name, result);
}

}  // namespace mmr::sim
