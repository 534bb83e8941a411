#include "driver/workloads.h"

#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/rng.h"
#include "core/metrics.h"
#include "driver/trace.h"
#include "dsp/backend.h"
#include "net/campaign.h"
#include "net/network.h"
#include "phy/mcs.h"
#include "sim/engine.h"
#include "sim/streaming.h"
#include "sim/telemetry.h"
#include "sim/workspace.h"

namespace perfbench {
namespace {

using mmr::Rng;
namespace sim = mmr::sim;
namespace net = mmr::net;
namespace core = mmr::core;

double elapsed_s(std::int64_t since_ns) {
  return static_cast<double>(now_ns() - since_ns) * 1e-9;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_summary(const core::LinkSummary& a, const core::LinkSummary& b) {
  return same_bits(a.reliability, b.reliability) &&
         same_bits(a.mean_throughput_bps, b.mean_throughput_bps) &&
         same_bits(a.mean_spectral_efficiency, b.mean_spectral_efficiency) &&
         same_bits(a.throughput_reliability_product,
                   b.throughput_reliability_product) &&
         a.num_samples == b.num_samples;
}

bool is_fraction(double x) { return std::isfinite(x) && x >= 0.0 && x <= 1.0; }

bool sane_summary(const core::LinkSummary& s) {
  return is_fraction(s.reliability) && std::isfinite(s.mean_throughput_bps) &&
         s.mean_throughput_bps >= 0.0 && s.num_samples > 0;
}

std::string name_for(const std::string& name, bool traced) {
  return traced ? traced_name(name) : name;
}

/// Running means of the simulated outcomes over the outcome horizon.
struct OutcomeMeans {
  double usable = 0.0;  ///< reliability x samples
  double tput_bps = 0.0;  ///< throughput x samples
  double samples = 0.0;

  void add(const core::LinkSummary& s) {
    const double n = static_cast<double>(s.num_samples);
    usable += s.reliability * n;
    tput_bps += s.mean_throughput_bps * n;
    samples += n;
  }
  void store(Report& report) const {
    report.reliability = samples > 0.0 ? usable / samples : 0.0;
    report.tput_mbps = samples > 0.0 ? tput_bps / samples / 1e6 : 0.0;
  }
};

/// Drive one engine trial the way sim::Engine::run + sim::run_experiment
/// do (no faults, no retries), with spans around set_time and scoring,
/// which the engine gives no hook for.
core::LinkSummary traced_trial(const sim::ExperimentSpec& spec,
                               std::size_t index) {
  static const std::size_t set_time_id = tracer().intern("channel.set_time");
  static const std::size_t score_id = tracer().intern("sim.score");
  sim::TrialContext ctx;
  ctx.index = index;
  ctx.stream_seed = Rng::derive_stream_seed(spec.seed, index);
  ctx.rng = Rng(ctx.stream_seed);
  sim::ScenarioSpec scenario = spec.scenario;
  sim::ControllerSpec controller = spec.controller;
  sim::RunConfig rc = spec.run;
  if (spec.seed_policy == sim::SeedPolicy::kPerTrialStream) {
    scenario.config.seed = ctx.stream_seed;
  }
  if (spec.customize) spec.customize(ctx, scenario, controller, rc);

  sim::TrialWorkspace workspace;
  sim::LinkWorld world = sim::ScenarioRegistry::instance().make(scenario);
  world.bind_workspace(&workspace);
  const std::unique_ptr<core::BeamController> ctrl =
      sim::ControllerRegistry::instance().make(world, scenario.config,
                                               controller);
  const mmr::phy::McsTable& mcs = mmr::phy::McsTable::nr();
  const double bandwidth = world.config().spec.bandwidth_hz;
  const core::LinkProbeInterface link = world.probe_interface();
  const auto num_ticks = static_cast<std::size_t>(rc.duration_s / rc.tick_s);
  std::vector<core::LinkSample> samples;
  samples.reserve(num_ticks);
  for (std::size_t i = 0; i < num_ticks; ++i) {
    const double t = static_cast<double>(i) * rc.tick_s;
    {
      Span span(set_time_id);
      world.set_time(t);
    }
    if (i == 0) {
      ctrl->start(t, link);
    } else {
      ctrl->step(t, link);
    }
    Span span(score_id);
    core::LinkSample sample;
    sample.t_s = t;
    sample.available = ctrl->link_available(t);
    sample.snr_db = world.true_snr_db(ctrl->tx_weights());
    sample.throughput_bps =
        sample.available
            ? mcs.throughput_bps(sample.snr_db, bandwidth, rc.protocol_overhead)
            : 0.0;
    samples.push_back(sample);
  }
  Span span(score_id);
  return core::summarize_link(samples, rc.outage_snr_db, bandwidth);
}

/// Loop control shared by the workloads: keep going while the time box is
/// open, and always until the outcome horizon is complete.
struct TimeBox {
  std::int64_t start_ns = now_ns();
  double seconds = 0.0;
  bool open() const { return elapsed_s(start_ns) < seconds; }
};

// ---------------------------------------------------------------------
// campaign_fig18: the paper's Fig. 18b/c paired mobile-blockage campaign.

constexpr std::array<const char*, 4> kFig18Schemes = {
    "mmreliable", "reactive", "beamspy", "widebeam"};
constexpr std::size_t kFig18RunsPerRound = 8;
constexpr std::size_t kFig18OutcomeRounds = 16;

sim::ExperimentSpec fig18_spec(std::uint64_t round_seed, bool traced) {
  constexpr std::size_t runs = kFig18RunsPerRound;
  sim::ExperimentSpec spec;
  spec.name = "fig18bc_mobile_blockage";
  spec.scenario.name = name_for("indoor_sparse", traced);
  spec.scenario.config.tx_power_dbm = 14.0;
  spec.controller.name = name_for("mmreliable", traced);
  spec.trials = kFig18Schemes.size() * runs;
  spec.seed = round_seed;
  spec.seed_policy = sim::SeedPolicy::kFixed;
  // The same per-run world, motion and blockers for every scheme (the
  // draw order of bench/bench_fig18_endtoend.cpp).
  spec.customize = [round_seed, traced](const sim::TrialContext& ctx,
                                        sim::ScenarioSpec& scenario,
                                        sim::ControllerSpec& controller,
                                        sim::RunConfig& /*run*/) {
    const std::size_t run = ctx.index % runs;
    scenario.config.seed = Rng::derive_stream_seed(round_seed, run);
    Rng rng = Rng(round_seed).fork(run);
    const double vy = rng.uniform(-1.5, -0.4);
    scenario.ue_velocity = {0.0, vy};
    const double speed1 = rng.uniform(1.0, 2.5);
    const double cross1 = rng.uniform(0.3, 0.55);
    scenario.blockers.push_back({cross1, speed1, 30.0});
    if (rng.bernoulli(0.4)) {
      const double speed2 = rng.uniform(1.5, 3.0);
      const double cross2 = rng.uniform(0.65, 0.85);
      scenario.blockers.push_back({cross2, speed2, 30.0});
    }
    controller.name = name_for(kFig18Schemes[ctx.index / runs], traced);
  };
  spec.label = [](const sim::TrialContext& ctx) {
    return std::string(kFig18Schemes[ctx.index / runs]);
  };
  return spec;
}

class CampaignFig18 final : public Workload {
 public:
  void run(const RunOptions& opts, Report& report) override {
    OutcomeMeans outcome;
    double trp_mmr = 0.0, trp_reactive = 0.0;
    std::size_t mmr_trials = 0, baseline_trials = 0, reactive_trials = 0;
    std::uint64_t ticks = 0;
    TimeBox box{now_ns(), opts.seconds};
    for (std::size_t round = 0;
         round < kFig18OutcomeRounds || box.open(); ++round) {
      const std::uint64_t round_seed =
          Rng::derive_stream_seed(opts.seed, round);
      const sim::ExperimentSpec spec = fig18_spec(round_seed, false);
      const std::int64_t t0 = now_ns();
      const sim::EngineResult res = sim::Engine().run(spec);
      const double wall = elapsed_s(t0);
      report.attempted += spec.trials;
      report.failed += res.failures.size();
      if (!opts.trace) {
        std::vector<double> trial_s;
        std::uint64_t round_ticks = 0;
        for (const auto& trial : res.trials) {
          trial_s.push_back(trial.wall_s);
          round_ticks += trial.value.num_samples;
        }
        report.timing.add(wall, trial_s, round_ticks);
      }
      for (std::size_t i = 0; i < res.trials.size(); ++i) {
        const core::LinkSummary& s = res.trials[i].value;
        if (!sane_summary(s)) {
          ++report.failed;
          report.problem("campaign_fig18: trial " + std::to_string(i) +
                         " has an out-of-range summary");
        }
        if (round >= kFig18OutcomeRounds) continue;
        outcome.add(s);
        ticks += s.num_samples;
        const std::string& scheme = res.labels[i];
        if (scheme == "mmreliable") {
          ++mmr_trials;
          trp_mmr += s.throughput_reliability_product;
        } else {
          ++baseline_trials;
          if (scheme == "reactive") {
            ++reactive_trials;
            trp_reactive += s.throughput_reliability_product;
          }
        }
      }
      if (opts.trace) {
        const sim::ExperimentSpec traced = fig18_spec(round_seed, true);
        const std::int64_t t1 = now_ns();
        for (std::size_t i = 0; i < traced.trials; ++i) {
          tracer().set_op(report.traced_ops++);
          const core::LinkSummary s = traced_trial(traced, i);
          if (!same_summary(s, res.trials[i].value)) {
            ++report.failed;
            report.problem("campaign_fig18: traced trial " + std::to_string(i) +
                           " of round " + std::to_string(round) +
                           " differs from the untraced engine run");
          }
        }
        report.traced_s += elapsed_s(t1);
        report.untraced_s += wall;
      }
    }
    report.timing.finish();
    outcome.store(report);
    if (mmr_trials == 0 || baseline_trials == 0 || reactive_trials == 0) {
      report.problem("campaign_fig18: the campaign lacks a trial class (" +
                     std::to_string(mmr_trials) + " mmReliable, " +
                     std::to_string(baseline_trials) + " baseline trials)");
    } else {
      const double gain = (trp_mmr / static_cast<double>(mmr_trials)) /
                          (trp_reactive / static_cast<double>(reactive_trials));
      report.info.emplace_back("trp_gain", gain);
      if (!(gain > 1.0)) {
        report.problem("campaign_fig18: mmReliable's throughput x "
                       "reliability product does not exceed reactive's "
                       "(gain " + std::to_string(gain) + ")");
      }
    }
    report.counts.emplace_back("count.ticks", static_cast<double>(ticks));
    report.counts.emplace_back("count.session_ticks",
                               static_cast<double>(ticks));
  }
};

// ---------------------------------------------------------------------
// network_handover: 3 cells x 2 UEs, interference on, short cell spacing.

constexpr std::array<const char*, 3> kNetSchemes = {"mmreliable", "reactive",
                                                    "terragraph"};
constexpr std::size_t kNetTrialsPerScheme = 1;
constexpr std::size_t kNetOutcomeRounds = 50;

net::NetworkCampaignSpec network_spec(std::uint64_t round_seed,
                                      const std::string& scheme, bool traced) {
  net::NetworkCampaignSpec spec;
  spec.name = "network_" + scheme;
  spec.trials = kNetTrialsPerScheme;
  spec.jobs = 1;
  spec.seed = round_seed;
  spec.network.num_cells = 3;
  spec.network.ues_per_cell = 2;
  spec.network.cell_spacing_m = 12.0;
  spec.network.interference.enabled = true;
  spec.network.link_scenario.name = name_for("indoor_crowd", traced);
  spec.network.link_scenario.config.tx_power_dbm = 14.0;
  spec.network.link_scenario.ue_velocity = {1.0, 0.0};
  spec.network.controller.name = name_for(scheme, traced);
  return spec;
}

bool same_network(const net::NetworkResult& a, const net::NetworkResult& b) {
  if (!same_summary(a.network, b.network)) return false;
  if (a.links.size() != b.links.size()) return false;
  if (a.handovers.size() != b.handovers.size()) return false;
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    const net::LinkReport& x = a.links[i];
    const net::LinkReport& y = b.links[i];
    if (!same_summary(x.summary, y.summary) || x.handovers != y.handovers ||
        x.serving_cell != y.serving_cell ||
        !same_bits(x.time_up_s, y.time_up_s) ||
        !same_bits(x.time_down_s, y.time_down_s)) {
      return false;
    }
  }
  return true;
}

class NetworkHandover final : public Workload {
 public:
  void run(const RunOptions& opts, Report& report) override {
    static const std::size_t build_id = tracer().intern("net.build");
    static const std::size_t tick_id = tracer().intern("net.tick");
    static const std::size_t finish_id = tracer().intern("net.finish");
    OutcomeMeans outcome;
    double availability_sum = 0.0;
    std::size_t links = 0, handovers = 0;
    std::uint64_t ticks = 0, link_ticks = 0;
    TimeBox box{now_ns(), opts.seconds};
    for (std::size_t round = 0; round < kNetOutcomeRounds || box.open();
         ++round) {
      const std::uint64_t round_seed =
          Rng::derive_stream_seed(opts.seed, round);
      for (const char* scheme : kNetSchemes) {
        const net::NetworkCampaignSpec spec =
            network_spec(round_seed, scheme, false);
        const std::int64_t t0 = now_ns();
        const net::NetworkCampaignResult res = net::run_network_campaign(spec);
        const double wall = elapsed_s(t0);
        report.attempted += spec.trials;
        const double duration = spec.network.run.duration_s;
        std::uint64_t campaign_ticks = 0;
        for (std::size_t i = 0; i < res.details.size(); ++i) {
          const net::NetworkResult& detail = res.details[i];
          bool ok = sane_summary(res.trials[i].value);
          for (const net::LinkReport& link : detail.links) {
            ok = ok && sane_summary(link.summary) &&
                 is_fraction(link.availability(duration));
            campaign_ticks += link.summary.num_samples;
            if (round >= kNetOutcomeRounds) continue;
            outcome.add(link.summary);
            availability_sum += link.availability(duration);
            ++links;
            link_ticks += link.summary.num_samples;
          }
          if (round < kNetOutcomeRounds) {
            handovers += detail.handovers.size();
            ticks += static_cast<std::uint64_t>(duration /
                                                spec.network.run.tick_s);
          }
          if (!ok) {
            ++report.failed;
            report.problem(std::string("network_handover: ") + scheme +
                           " trial has an out-of-range link summary");
          }
        }
        if (!opts.trace) {
          std::vector<double> trial_s;
          for (const auto& trial : res.trials) trial_s.push_back(trial.wall_s);
          report.timing.add(wall, trial_s, campaign_ticks);
          continue;
        }
        // Traced copy: the body of net::run_network_campaign with spans
        // around construction, every tick and the final aggregation.
        const net::NetworkCampaignSpec traced =
            network_spec(round_seed, scheme, true);
        const std::int64_t t1 = now_ns();
        for (std::size_t i = 0; i < traced.trials; ++i) {
          tracer().set_op(report.traced_ops++);
          const std::uint64_t stream_seed =
              Rng::derive_stream_seed(traced.seed, i);
          sim::TrialWorkspace workspace;
          std::unique_ptr<net::Network> network;
          {
            Span span(build_id);
            network = std::make_unique<net::Network>(traced.network,
                                                     stream_seed, &workspace);
            network->begin();
          }
          const sim::RunConfig& rc = traced.network.run;
          const auto num_ticks =
              static_cast<std::size_t>(rc.duration_s / rc.tick_s);
          for (std::size_t k = 0; k < num_ticks; ++k) {
            Span span(tick_id);
            network->step_tick(static_cast<double>(k) * rc.tick_s);
          }
          net::NetworkResult outcome_traced;
          {
            Span span(finish_id);
            outcome_traced = network->finish(nullptr);
          }
          if (!same_network(outcome_traced, res.details[i])) {
            ++report.failed;
            report.problem(std::string("network_handover: traced ") + scheme +
                           " trial of round " + std::to_string(round) +
                           " differs from run_network_campaign");
          }
        }
        report.traced_s += elapsed_s(t1);
        report.untraced_s += wall;
      }
    }
    report.timing.finish();
    outcome.store(report);
    if (handovers == 0) {
      report.problem("network_handover: no handovers in the outcome horizon; "
                     "the workload no longer exercises A3 handover");
    }
    report.info.emplace_back("ledger_availability",
                             links > 0 ? availability_sum / links : 0.0);
    report.counts.emplace_back("count.ticks", static_cast<double>(ticks));
    report.counts.emplace_back("count.session_ticks",
                               static_cast<double>(link_ticks));
    report.counts.emplace_back("count.handovers",
                               static_cast<double>(handovers));
  }
};

// ---------------------------------------------------------------------
// service_churn: the streaming service on the bench_streaming template.

constexpr std::size_t kServiceSessions = 300;
constexpr std::size_t kServiceShards = 4;
constexpr double kServiceTickS = 2.5e-3;
constexpr double kServiceLifetimeS = 1.0;
constexpr double kServiceSnapshotEveryS = 0.25;
constexpr std::uint64_t kServiceOutcomeEpochs = 4000;
constexpr std::uint64_t kServiceTraceChunk = 50;
/// Usable fraction below this means the service is misconfigured (with
/// interference left on by default it collapses to 0).
constexpr double kServiceMinReliability = 0.5;

sim::StreamingSpec service_spec(std::uint64_t seed, bool traced) {
  sim::StreamingSpec spec;
  spec.name = "service_churn";
  spec.sessions = kServiceSessions;
  spec.shards = kServiceShards;
  spec.jobs = 1;
  spec.seed = seed == 0 ? 1 : seed;
  spec.duration_s = static_cast<double>(kServiceOutcomeEpochs) * kServiceTickS;
  spec.snapshot_every_s = kServiceSnapshotEveryS;
  spec.freeze_timing = true;
  // Arrivals at twice the departure rate against a cap at the initial
  // population: every departure is refilled within a few ticks, so the
  // live population (and the work per epoch) holds at about 300.
  spec.max_sessions = kServiceSessions;
  spec.churn.arrival_rate_per_s =
      2.0 * static_cast<double>(kServiceSessions) / kServiceLifetimeS;
  spec.churn.mean_lifetime_s = kServiceLifetimeS;
  spec.network.num_cells = 1;
  spec.network.ues_per_cell = 1;
  // NetworkSpec enables interference by default; this workload is the
  // interference-free service (the handover workload covers the fold).
  spec.network.interference.enabled = false;
  spec.network.run.tick_s = kServiceTickS;
  spec.network.run.duration_s = spec.duration_s;
  spec.network.link_scenario.name = name_for("indoor_sparse", traced);
  spec.network.link_scenario.config.tx_power_dbm = 14.0;
  spec.network.link_scenario.config.codebook_size = 16;
  spec.network.link_scenario.ue_velocity = {1.0, 0.0};
  spec.network.controller.name = name_for("reactive", traced);
  return spec;
}

bool same_snapshot(const sim::StreamSnapshot& a, const sim::StreamSnapshot& b) {
  return same_bits(a.t_s, b.t_s) && a.index == b.index &&
         a.live_sessions == b.live_sessions &&
         a.total_joined == b.total_joined &&
         a.total_left == b.total_left && a.window_ticks == b.window_ticks &&
         a.total_ticks == b.total_ticks &&
         same_bits(a.window_availability, b.window_availability) &&
         same_bits(a.availability, b.availability) &&
         a.outage_ticks == b.outage_ticks &&
         same_bits(a.snr_mean_db, b.snr_mean_db) &&
         same_bits(a.snr_p50_db, b.snr_p50_db) &&
         same_bits(a.snr_p99_db, b.snr_p99_db) &&
         same_bits(a.tput_mean_bps, b.tput_mean_bps) &&
         same_bits(a.tput_p50_bps, b.tput_p50_bps) &&
         same_bits(a.tput_p99_bps, b.tput_p99_bps) && a.dropped == b.dropped;
}

/// Collects snapshots; in the traced service the delivery is a span.
class SnapshotLog final : public sim::TelemetrySink {
 public:
  explicit SnapshotLog(bool traced) : traced_(traced) {}
  void on_snapshot(const sim::StreamSnapshot& s) override {
    static const std::size_t id = tracer().intern("sim.streaming.snapshot");
    Span span(id, traced_);
    snapshots.push_back(s);
  }
  std::vector<sim::StreamSnapshot> snapshots;

 private:
  bool traced_;
};

/// One service plus the bookkeeping the consistency checks need.
struct ServiceRun {
  explicit ServiceRun(const sim::StreamingSpec& spec, bool traced)
      : log(traced), service(spec, &log) {}
  SnapshotLog log;
  sim::StreamingService service;
  /// Scored session-ticks recounted from outside (live sessions after
  /// each epoch), by epoch.
  std::vector<std::uint64_t> ticks_after_epoch;
  std::uint64_t ticks = 0;

  /// One epoch; returns the session-ticks it scored.
  std::uint64_t step() {
    service.step_epoch();
    const std::uint64_t scored = service.live_sessions();
    ticks += scored;
    ticks_after_epoch.push_back(ticks);
    return scored;
  }
};

class ServiceChurn final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    run_ = std::make_unique<ServiceRun>(service_spec(seed, false), false);
    run_->service.begin();
  }

  void run(const RunOptions& opts, Report& report) override {
    if (run_ == nullptr) setup(opts.seed);
    ServiceRun& base = *run_;
    std::unique_ptr<ServiceRun> traced;
    static const std::size_t begin_id = tracer().intern("sim.streaming.begin");
    static const std::size_t epoch_id = tracer().intern("sim.streaming.epoch");
    if (opts.trace) {
      const std::int64_t t0 = now_ns();
      traced =
          std::make_unique<ServiceRun>(service_spec(opts.seed, true), true);
      Span span(begin_id);
      traced->service.begin();
      report.traced_s += elapsed_s(t0);
    }
    TimeBox box{now_ns(), opts.seconds};
    while (base.service.epoch() < kServiceOutcomeEpochs || box.open()) {
      if (!opts.trace) {
        const std::int64_t t0 = now_ns();
        const std::uint64_t scored = base.step();
        const double dt = elapsed_s(t0);
        report.timing.add(dt, {&dt, 1}, scored);
        continue;
      }
      const std::int64_t t0 = now_ns();
      for (std::uint64_t k = 0; k < kServiceTraceChunk; ++k) base.step();
      report.untraced_s += elapsed_s(t0);
      const std::int64_t t1 = now_ns();
      for (std::uint64_t k = 0; k < kServiceTraceChunk; ++k) {
        tracer().set_op(report.traced_ops++);
        Span span(epoch_id);
        traced->step();
      }
      report.traced_s += elapsed_s(t1);
    }
    report.timing.finish();
    report.attempted = base.service.epoch();
    base.service.finish();
    check(base, report);
    if (traced != nullptr) {
      traced->service.finish();
      const auto& a = base.log.snapshots;
      const auto& b = traced->log.snapshots;
      bool same = a.size() == b.size();
      for (std::size_t i = 0; same && i < a.size(); ++i) {
        same = same_snapshot(a[i], b[i]);
      }
      if (!same) {
        ++report.failed;
        report.problem("service_churn: the traced service's snapshots differ "
                       "from the untraced service's");
      }
    }
  }

 private:
  void check(const ServiceRun& r, Report& report) const {
    std::uint64_t window_sum = 0;
    const sim::StreamSnapshot* at_horizon = nullptr;
    for (const sim::StreamSnapshot& s : r.log.snapshots) {
      window_sum += s.window_ticks;
      const auto epoch =
          static_cast<std::uint64_t>(std::llround(s.t_s / kServiceTickS));
      const bool consistent =
          is_fraction(s.availability) && is_fraction(s.window_availability) &&
          s.total_joined - s.total_left == s.live_sessions &&
          window_sum == s.total_ticks && epoch >= 1 &&
          epoch <= r.ticks_after_epoch.size() &&
          r.ticks_after_epoch[epoch - 1] == s.total_ticks;
      if (!consistent) {
        ++report.failed;
        report.problem("service_churn: snapshot " + std::to_string(s.index) +
                       " is inconsistent with joins, leaves and ticks");
      }
      if (epoch == kServiceOutcomeEpochs) at_horizon = &s;
    }
    if (at_horizon == nullptr) {
      report.problem("service_churn: no snapshot at the outcome horizon");
      return;
    }
    report.reliability = at_horizon->availability;
    report.tput_mbps = at_horizon->tput_mean_bps / 1e6;
    if (!(report.reliability >= kServiceMinReliability)) {
      report.problem("service_churn: availability " +
                     std::to_string(report.reliability) +
                     " is below the sane band (is interference on?)");
    }
    report.counts.emplace_back("count.ticks",
                               static_cast<double>(kServiceOutcomeEpochs));
    report.counts.emplace_back("count.session_ticks",
                               static_cast<double>(at_horizon->total_ticks));
    report.counts.emplace_back("count.joins",
                               static_cast<double>(at_horizon->total_joined));
    report.counts.emplace_back("count.leaves",
                               static_cast<double>(at_horizon->total_left));
  }

  std::unique_ptr<ServiceRun> run_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"campaign_fig18", "service_churn", "network_handover"};
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "campaign_fig18") return std::make_unique<CampaignFig18>();
  if (name == "service_churn") return std::make_unique<ServiceChurn>();
  if (name == "network_handover") return std::make_unique<NetworkHandover>();
  return nullptr;
}

std::string init_process() {
  net::register_net_builtins();
  register_traced_factories();
  const mmr::dsp::Backend best = mmr::dsp::best_backend();
  if (!mmr::dsp::set_backend(best) || mmr::dsp::active_backend() != best) {
    throw std::runtime_error("perfbench: cannot pin the DSP kernel backend");
  }
  return std::string(mmr::dsp::backend_name(best));
}

}  // namespace perfbench
