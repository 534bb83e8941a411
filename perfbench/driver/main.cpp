// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--commit ID]
//   perfbench --workload NAME --seed N --setup-only --spawn-ns T
//
// Untraced runs (--trace 0) print every end-to-end metric except setup_s,
// which perfbench/run.py measures by launching this binary with
// --setup-only several times: each launch prints the time from T (the
// launcher's CLOCK_MONOTONIC reading just before it spawned the process)
// to the moment the first op could start, raw and calibrated to the
// reference speed like every other timing (driver/timing.h), and exits.
// Traced runs (--trace 1) print the per-layer metrics. The last stdout
// line is the result object; a provenance and an info line precede it.
// See perfbench/README.md.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "array/pattern_cache.h"
#include "common/parse.h"
#include "driver/timing.h"
#include "driver/trace.h"
#include "driver/workloads.h"

// Build guard: timings from an unoptimized or sanitized build would be
// meaningless, so such a build of the benchmark does not compile.
#if !defined(__OPTIMIZE__)
#error "perfbench must be built with optimization (RelWithDebInfo or Release)"
#endif
#if PERFBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#error "perfbench must not be built with a sanitizer"
#endif

namespace {

using perfbench::Report;
using perfbench::Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool setup_only = false;
  std::int64_t spawn_ns = -1;
  std::string work_dir = ".bench_build/perfbench/work";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--commit ID]\n"
               "       %s --workload NAME --seed N --setup-only --spawn-ns T\n",
               argv0, why, argv0, argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(argv[0], ("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      if (!mmr::parse_u64(v, o.seed)) {
        usage(argv[0], "--seed needs an unsigned integer");
      }
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!mmr::parse_f64(v, o.seconds) || !(o.seconds > 0.0) ||
          !std::isfinite(o.seconds)) {
        usage(argv[0], "--seconds needs a positive number");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage(argv[0], "--trace must be 0 or 1");
      }
      o.trace = v[0] - '0';
    } else if (arg == "--spawn-ns") {
      std::uint64_t ns = 0;
      if (!mmr::parse_u64(v, ns)) usage(argv[0], "--spawn-ns needs an integer");
      o.spawn_ns = static_cast<std::int64_t>(ns);
    } else if (arg == "--work-dir") {
      o.work_dir = v;
    } else if (arg == "--commit") {
      o.commit = v;
    } else {
      usage(argv[0], ("unknown flag " + arg).c_str());
    }
  }
  if (o.workload.empty() || !have_seed) {
    usage(argv[0], "--workload and --seed are required");
  }
  if (o.setup_only && o.spawn_ns < 0) {
    usage(argv[0], "--setup-only needs --spawn-ns");
  }
  if (!o.setup_only && (!have_seconds || o.trace < 0)) {
    usage(argv[0], "--seconds and --trace are required");
  }
  return o;
}

/// Linear-interpolated quantile (the common "type 7" definition).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Peak resident set of this process [MB] (VmHWM; getrusage's ru_maxrss
/// would also count the launcher, since it survives exec).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("perfbench: no VmHWM in /proc/self/status");
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// End-to-end metrics. Timings are at the reference host speed
/// (driver/timing.h); the raw wall-clock values go to the info line.
std::vector<Metric> end_to_end(const Report& r) {
  const perfbench::TimedLoop& t = r.timing;
  const double ops = static_cast<double>(t.op_ms().size());
  const double loop_s = t.loop_s();
  return {
      {"ops_per_s", loop_s > 0.0 ? ops / loop_s : 0.0, "1/s"},
      {"op_ms_p50", quantile(t.op_ms(), 0.50), "ms"},
      {"op_ms_p90", quantile(t.op_ms(), 0.90), "ms"},
      {"session_ticks_per_s",
       loop_s > 0.0 ? static_cast<double>(t.ticks()) / loop_s : 0.0, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"reliability", r.reliability, "fraction"},
      {"tput_mbps", r.tput_mbps, "Mbit/s"},
  };
}

void add_raw_timings(Report& r) {
  const perfbench::TimedLoop& t = r.timing;
  const double ops = static_cast<double>(t.raw_op_ms().size());
  r.info.emplace_back("ops", ops);
  r.info.emplace_back("raw_ops_per_s",
                      t.raw_loop_s() > 0.0 ? ops / t.raw_loop_s() : 0.0);
  r.info.emplace_back("raw_op_ms_p50", quantile(t.raw_op_ms(), 0.50));
  r.info.emplace_back("raw_op_ms_p90", quantile(t.raw_op_ms(), 0.90));
  r.info.emplace_back("calibration_passes", static_cast<double>(t.passes()));
  r.info.emplace_back("time_scale",
                      t.raw_loop_s() > 0.0 ? t.loop_s() / t.raw_loop_s() : 1.0);
}

/// Spans reported per layer. Every traced run reports all of them (zero
/// where a workload never enters the layer).
const std::vector<std::string>& layer_spans() {
  static const std::vector<std::string> spans = {
      "core.mmreliable.start", "core.mmreliable.step",
      "core.reactive.start",   "core.reactive.step",
      "core.beamspy.start",    "core.beamspy.step",
      "core.widebeam.start",   "core.widebeam.step",
      "core.terragraph.start", "core.terragraph.step",
      "phy.probe",             "channel.set_time",
      "sim.score",             "sim.world_build",
      "net.build",             "net.tick",
      "net.finish",            "sim.streaming.begin",
      "sim.streaming.epoch",   "sim.streaming.snapshot"};
  return spans;
}

std::vector<Metric> per_layer(const Report& r) {
  const Tracer& t = perfbench::tracer();
  const double ops = std::max<double>(1.0, static_cast<double>(r.traced_ops));
  std::vector<Metric> out;
  for (const std::string& span : layer_spans()) {
    const Tracer::Totals tot = t.totals(span);
    out.push_back({span + ".calls", static_cast<double>(tot.calls) / ops,
                   "count/op"});
    out.push_back({span + ".busy_ms",
                   static_cast<double>(tot.busy_ns) * 1e-6 / ops, "ms/op"});
    out.push_back({span + ".self_ms",
                   static_cast<double>(tot.self_ns) * 1e-6 / ops, "ms/op"});
  }

  const auto cache = mmr::array::PatternCache::instance().stats();
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  out.push_back({"array.pattern_cache.hits", static_cast<double>(cache.hits),
                 "count"});
  out.push_back({"array.pattern_cache.misses",
                 static_cast<double>(cache.misses), "count"});
  out.push_back({"array.pattern_cache.hit_ratio",
                 lookups > 0.0 ? static_cast<double>(cache.hits) / lookups
                               : 0.0,
                 "fraction"});

  for (const char* count : {"count.ticks", "count.session_ticks", "count.joins",
                            "count.leaves", "count.handovers"}) {
    double value = 0.0;
    for (const auto& [name, v] : r.counts) {
      if (name == count) value = v;
    }
    out.push_back({count, value, "count"});
  }

  out.push_back({"trace.ops", static_cast<double>(r.traced_ops), "count"});
  out.push_back({"trace.coverage",
                 r.traced_s > 0.0
                     ? static_cast<double>(t.top_level_ns()) * 1e-9 / r.traced_s
                     : 0.0,
                 "fraction"});
  out.push_back({"trace.overhead",
                 r.untraced_s > 0.0 ? r.traced_s / r.untraced_s - 1.0 : 0.0,
                 "fraction"});
  return out;
}

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  auto workload = perfbench::make_workload(opts.workload);
  if (workload == nullptr) {
    usage(argv[0], ("unknown workload " + opts.workload).c_str());
  }
  try {
    const std::string backend = perfbench::init_process();
    workload->setup(opts.seed);
    if (opts.setup_only) {
      const double setup_s =
          static_cast<double>(perfbench::now_ns() - opts.spawn_ns) * 1e-9;
      perfbench::TimedLoop calibrated;
      calibrated.add(setup_s, {&setup_s, 1}, 0);
      calibrated.finish();
      std::printf("{\"setup_s\": %s, \"raw_setup_s\": %s}\n",
                  json_number(calibrated.loop_s()).c_str(),
                  json_number(setup_s).c_str());
      std::fflush(stdout);
      std::_Exit(0);  // the set-up time ends here; skip teardown
    }

    std::printf(
        "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
        "\"trace\": %d, \"build_type\": %s, \"kernel_backend\": %s, "
        "\"nproc\": %u, \"host\": %s, \"commit\": %s, \"jobs\": 1}}\n",
        json_string(opts.workload).c_str(),
        static_cast<unsigned long long>(opts.seed),
        json_number(opts.seconds).c_str(), opts.trace,
        json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(backend).c_str(),
        std::thread::hardware_concurrency(), json_string(host_name()).c_str(),
        json_string(opts.commit).c_str());

    perfbench::RunOptions run;
    run.seed = opts.seed;
    run.seconds = opts.seconds;
    run.trace = opts.trace == 1;
    Report report;
    workload->run(run, report);

    const std::vector<Metric> metrics =
        run.trace ? per_layer(report) : end_to_end(report);
    if (!run.trace) add_raw_timings(report);
    if (run.trace) {
      std::filesystem::create_directories(opts.work_dir);
      perfbench::tracer().write(opts.work_dir + "/" + opts.workload +
                                ".spans.tsv");
    }
    for (const std::string& p : report.problems) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
    }
    std::string info;
    for (const auto& [name, value] : report.info) {
      info += (info.empty() ? "" : ", ") + json_string(name) + ": " +
              json_number(value);
    }
    std::printf("{\"info\": {%s}}\n", info.c_str());
    std::string line = "{\"correct\": ";
    line += report.correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(report.attempted);
    line += ", \"failed\": " + std::to_string(report.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) line += ", ";
      line += json_string(metrics[i].name) + ": {\"value\": " +
              json_number(metrics[i].value) +
              ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
