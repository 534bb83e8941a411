// Streaming service mode at scale: a sharded table of live UE sessions
// advanced along one shared timeline with bounded memory (sim/streaming.h,
// ROADMAP item 3), instead of the batch "run trial i to completion"
// campaigns every other bench runs.
//
// The service ticks every live session each epoch, folds per-shard O(1)
// accumulators (Welford moments, P-square quantiles, availability
// counters) at each snapshot boundary, and emits the snapshot series as
// JSON lines -- sessions/s, availability, P50/P99/P99.9 SNR and
// throughput -- with the process RSS sampled at every boundary so the
// flat-memory claim is recorded next to the statistics it buys.
//
// On top of the shared sweep flags (sim/campaign_cli.h), the bench adds:
//   --sessions N         initial live sessions (default 1000)
//   --duration-s X       shared-timeline horizon (default 1.0)
//   --snapshot-every-s X snapshot cadence (default 0.1)
//   --churn-rate X       session arrivals per second, Poisson (default 0)
//   --mean-lifetime-s X  mean exponential session lifetime (default
//                        sessions/churn-rate: hold the population)
//   --shards N           session-table shards (default 8; part of the
//                        result's identity, NOT tied to --jobs)
//   --max-sessions N     live-session cap under churn (default 0 = off)
//   --tick-s X           timeline tick (default 2.5 ms)
//   --cells N / --ues-per-cell N   cell layout template (default 1/1)
//   --interference 0|1   cross-link interference inside each shard
//                        (default 0: O(n^2) per shard -- enable only for
//                        small per-shard populations)
//   --flush-every-n N    JSON sink flush cadence (default 0: stream
//                        flushed once at the end; campaigns keep 1)
//
// --seed/--jobs/--controller/--scenario/--freeze-timing/--json-out come
// from the shared CLI. With --freeze-timing the ENTIRE JSON stream is
// byte-identical across --jobs values (the determinism contract pinned
// by tests/streaming): the {"rss": ...} lines are suppressed and the
// summary's rss fields zeroed, because RSS is machine state like wall
// clock (thread stacks alone shift VmRSS across jobs counts).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/table.h"
#include "net/network.h"
#include "sim/campaign_cli.h"
#include "sim/streaming.h"

using namespace mmr;

namespace {

struct StreamingCliOptions {
  std::size_t sessions = 1000;
  double duration_s = 1.0;
  double snapshot_every_s = 0.1;
  double churn_rate = 0.0;
  double mean_lifetime_s = 0.0;
  std::size_t shards = 8;
  std::size_t max_sessions = 0;
  double tick_s = 2.5e-3;
  std::size_t cells = 1;
  std::size_t ues_per_cell = 1;
  std::size_t interference = 0;
  std::size_t flush_every_n = 0;
};

/// VmRSS of this process [kB] (0 where /proc is unavailable).
long read_rss_kb() {
  long rss = 0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::sscanf(line.c_str(), "VmRSS: %ld", &rss);
      break;
    }
  }
  return rss;
}

/// Emits each snapshot as the standard JsonLinesSink record followed by a
/// paired {"rss": ...} line sampled at the boundary, and keeps the series
/// in memory for the stdout table.
class BenchSink final : public sim::TelemetrySink {
 public:
  /// freeze_timing suppresses the {"rss": ...} lines -- RSS is machine
  /// state like wall clock, and frozen output must be a pure function of
  /// the spec (byte-identical across --jobs; thread stacks alone shift
  /// VmRSS). The series is still sampled for the stdout table.
  BenchSink(std::ostream& os, std::size_t flush_every_n, bool freeze_timing)
      : json_(os, false, flush_every_n), os_(os), freeze_(freeze_timing) {}

  void on_snapshot(const sim::StreamSnapshot& s) override {
    json_.on_snapshot(s);
    const long rss = read_rss_kb();
    if (!freeze_) {
      os_ << "{\"rss\": {\"index\": " << s.index << ", \"rss_kb\": " << rss
          << "}}\n";
    }
    snapshots_.push_back(s);
    rss_kb_.push_back(rss);
  }

  const std::vector<sim::StreamSnapshot>& snapshots() const {
    return snapshots_;
  }
  const std::vector<long>& rss_kb() const { return rss_kb_; }

 private:
  sim::JsonLinesSink json_;
  std::ostream& os_;
  bool freeze_ = false;
  std::vector<sim::StreamSnapshot> snapshots_;
  std::vector<long> rss_kb_;
};

}  // namespace

int main(int argc, char** argv) {
  net::register_net_builtins();
  StreamingCliOptions st;
  auto extra = [&st](int& i, int argc_in, char** argv_in) -> bool {
    auto flag_arg = [&](const char* flag) {
      return sim::flag_value(i, argc_in, argv_in, flag);
    };
    if (const char* v = flag_arg("--sessions")) {
      st.sessions = sim::require_size("--sessions", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--duration-s")) {
      st.duration_s = sim::require_f64("--duration-s", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--snapshot-every-s")) {
      st.snapshot_every_s =
          sim::require_f64("--snapshot-every-s", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--churn-rate")) {
      st.churn_rate = sim::require_f64("--churn-rate", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--mean-lifetime-s")) {
      st.mean_lifetime_s =
          sim::require_f64("--mean-lifetime-s", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--shards")) {
      st.shards = sim::require_size("--shards", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--max-sessions")) {
      st.max_sessions =
          sim::require_size("--max-sessions", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--tick-s")) {
      st.tick_s = sim::require_f64("--tick-s", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--cells")) {
      st.cells = sim::require_size("--cells", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--ues-per-cell")) {
      st.ues_per_cell =
          sim::require_size("--ues-per-cell", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--interference")) {
      st.interference =
          sim::require_size("--interference", v, argv_in[0]);
      return true;
    }
    if (const char* v = flag_arg("--flush-every-n")) {
      st.flush_every_n =
          sim::require_size("--flush-every-n", v, argv_in[0]);
      return true;
    }
    return false;
  };
  const auto opts = sim::parse_sweep_cli(
      argc, argv, extra,
      "          [--sessions N] [--duration-s X] [--snapshot-every-s X]\n"
      "          [--churn-rate X] [--mean-lifetime-s X] [--shards N]\n"
      "          [--max-sessions N] [--tick-s X] [--cells N]\n"
      "          [--ues-per-cell N] [--interference 0|1] "
      "[--flush-every-n N]");
  if (opts.shard.enabled() || !opts.shard_queue.empty() ||
      !opts.merge.empty()) {
    std::fprintf(stderr,
                 "%s: --shard/--shard-queue/--merge apply only to "
                 "trial-campaign benches; the streaming service has no "
                 "journal to shard (--shards here sizes the session "
                 "table)\n",
                 argv[0]);
    return 2;
  }

  sim::StreamingSpec spec;
  spec.name = "streaming";
  spec.sessions = st.sessions;
  spec.max_sessions = st.max_sessions;
  spec.shards = st.shards;
  spec.jobs = opts.jobs;
  spec.seed = opts.seed > 0 ? opts.seed : 21;
  spec.duration_s = st.duration_s;
  spec.snapshot_every_s = st.snapshot_every_s;
  spec.freeze_timing = opts.freeze_timing;
  spec.churn.arrival_rate_per_s = st.churn_rate;
  if (st.churn_rate > 0.0) {
    // Default lifetime holds the population near its initial size:
    // arrivals * lifetime = sessions in equilibrium.
    spec.churn.mean_lifetime_s =
        st.mean_lifetime_s > 0.0
            ? st.mean_lifetime_s
            : static_cast<double>(st.sessions) / st.churn_rate;
  } else if (st.mean_lifetime_s > 0.0) {
    spec.churn.mean_lifetime_s = st.mean_lifetime_s;
  }
  spec.network.num_cells = st.cells;
  spec.network.ues_per_cell = st.ues_per_cell;
  spec.network.interference.enabled = st.interference != 0;
  spec.network.run.tick_s = st.tick_s;
  // The service owns the horizon; the network's duration only sizes
  // batch-mode buffers, but keep them consistent for finish() users.
  spec.network.run.duration_s = st.duration_s;
  spec.network.link_scenario.name =
      opts.scenario.empty() ? "indoor_sparse" : opts.scenario;
  // Same tight link margin as the blockage benches, a slow walk so
  // tracking matters, and a small codebook: the per-session footprint is
  // what bounds a 100k-session table, not the per-trial math.
  spec.network.link_scenario.config.tx_power_dbm = 14.0;
  spec.network.link_scenario.config.codebook_size = 16;
  spec.network.link_scenario.ue_velocity = {1.0, 0.0};
  spec.network.controller.name =
      opts.controller.empty() ? "reactive" : opts.controller;

  std::printf("=== Streaming service: %zu session(s), %zu shard(s) ===\n",
              st.sessions, st.shards);
  std::printf(
      "(scenario %s, controller %s, tick %.4g s, horizon %.3g s, snapshot "
      "every %.3g s, churn %.3g /s, seed %llu, jobs %zu)\n\n",
      spec.network.link_scenario.name.c_str(),
      spec.network.controller.name.c_str(), st.tick_s, st.duration_s,
      st.snapshot_every_s, st.churn_rate,
      static_cast<unsigned long long>(spec.seed), opts.jobs);

  std::ostringstream json_os;
  BenchSink sink(json_os, st.flush_every_n, opts.freeze_timing);
  sim::StreamingService service(spec, &sink);
  const sim::StreamingResult result = service.run();

  Table table({"t [s]", "live", "ticks/s", "avail", "p50 SNR", "p99 SNR",
               "p50 Mb/s", "rss [MB]"});
  for (std::size_t i = 0; i < sink.snapshots().size(); ++i) {
    const sim::StreamSnapshot& s = sink.snapshots()[i];
    table.add_row({Table::num(s.t_s, 3),
                   std::to_string(s.live_sessions),
                   Table::num(s.session_ticks_per_s, 0),
                   Table::num(s.window_availability, 4),
                   Table::num(s.snr_p50_db, 2), Table::num(s.snr_p99_db, 2),
                   Table::num(s.tput_p50_bps / 1e6, 1),
                   Table::num(static_cast<double>(sink.rss_kb()[i]) / 1024.0,
                              1)});
  }
  table.print(std::cout);
  std::printf(
      "\n%llu epochs, %llu session-ticks, %llu joined / %llu left, "
      "%llu snapshot(s), %llu dropped\n",
      static_cast<unsigned long long>(result.epochs),
      static_cast<unsigned long long>(result.final_snapshot.total_ticks),
      static_cast<unsigned long long>(result.total_joined),
      static_cast<unsigned long long>(result.total_left),
      static_cast<unsigned long long>(result.snapshots_emitted),
      static_cast<unsigned long long>(result.snapshots_dropped));

  // Summary record: the final cumulative stats plus the RSS envelope
  // (first/last boundary) -- the flat-memory evidence.
  {
    const sim::StreamSnapshot& f = result.final_snapshot;
    // RSS is machine state: frozen output zeroes it like the wall-clock
    // fields so the record stays a pure function of the spec.
    const long rss_first = opts.freeze_timing || sink.rss_kb().empty()
                               ? 0
                               : sink.rss_kb().front();
    const long rss_last = opts.freeze_timing || sink.rss_kb().empty()
                              ? 0
                              : sink.rss_kb().back();
    json_os.precision(10);
    json_os << "{\"streaming_summary\": {\"name\": \"" << spec.name
            << "\", \"sessions\": " << st.sessions
            << ", \"shards\": " << st.shards << ", \"jobs\": " << opts.jobs
            << ", \"seed\": " << spec.seed
            << ", \"duration_s\": " << st.duration_s
            << ", \"tick_s\": " << st.tick_s
            << ", \"churn_rate_per_s\": " << st.churn_rate
            << ", \"epochs\": " << result.epochs
            << ", \"total_ticks\": " << f.total_ticks
            << ", \"total_joined\": " << result.total_joined
            << ", \"total_left\": " << result.total_left
            << ", \"live_sessions\": " << result.live_sessions
            << ", \"availability\": " << f.availability
            << ", \"snr_p50_db\": " << f.snr_p50_db
            << ", \"snr_p99_db\": " << f.snr_p99_db
            << ", \"snr_p999_db\": " << f.snr_p999_db
            << ", \"tput_p50_bps\": " << f.tput_p50_bps
            << ", \"tput_p99_bps\": " << f.tput_p99_bps
            << ", \"snapshots\": " << result.snapshots_emitted
            << ", \"dropped\": " << result.snapshots_dropped
            << ", \"rss_first_kb\": " << rss_first
            << ", \"rss_last_kb\": " << rss_last << "}}\n";
  }

  if (!opts.json_out.empty()) {
    AtomicFile file(opts.json_out);
    file.stream() << json_os.str();
    if (!file.stream()) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                   opts.json_out.c_str());
      return 2;
    }
    file.commit();
  } else {
    std::fputs(json_os.str().c_str(), stdout);
  }
  return 0;
}
