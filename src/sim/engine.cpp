#include "sim/engine.h"

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "baselines/oracle.h"
#include "common/constants.h"
#include "common/error.h"
#include "core/delay_multibeam.h"
#include "sim/runner.h"
#include "sim/telemetry.h"
#include "sim/workspace.h"

namespace mmr::sim {
namespace {

[[noreturn]] void throw_unknown(const char* kind, const std::string& name,
                                const std::vector<std::string>& registered) {
  std::ostringstream msg;
  msg << "unknown " << kind << " '" << name << "'; registered " << kind
      << "s: ";
  for (std::size_t i = 0; i < registered.size(); ++i) {
    if (i > 0) msg << ", ";
    msg << registered[i];
  }
  throw std::invalid_argument(msg.str());
}

void add_link_blockers(LinkWorld& world, const ScenarioSpec& spec) {
  const LinkEndpoints link = link_endpoints(spec);
  for (const BlockerSpec& b : spec.blockers) {
    world.add_blocker(crossing_blocker(link.tx, link.ue, b.crossing_time_s,
                                       b.speed_mps, b.depth_db));
  }
}

// Reflection-poor space (Section 8 / IRS future work): the only surface is
// a distant wooden wall whose reflection arrives too weak for training, so
// the link is effectively single-path until an IRS panel is deployed.
LinkWorld make_indoor_poor(const ScenarioSpec& spec) {
  channel::Environment env(kCarrier28GHz);
  env.add_wall({{{0.0, 0.0}, {10.0, 0.0}}, channel::Material::wood()});
  const channel::Pose tx{kIndoorGnbPosition, 0.0};
  auto traj = std::make_shared<channel::StaticPose>(
      channel::Pose{spec.ue_start, kPi});
  WorldConfig wc;
  wc.spec = {kCarrier28GHz, kBandwidth400MHz, 64};
  wc.budget = phy::LinkBudget::paper_indoor();
  wc.budget.tx_power_dbm = spec.config.tx_power_dbm;
  wc.tx_ula = {spec.config.tx_elements, 0.5};
  LinkWorld world(std::move(env), tx, std::move(traj), wc,
                  Rng(spec.config.seed));
  if (spec.irs_gain_db > 0.0) {
    channel::IrsPanel panel;
    panel.position = spec.irs_position;
    panel.gain_db = spec.irs_gain_db;
    world.add_irs(panel);
  }
  add_link_blockers(world, spec);
  return world;
}

LinkWorld make_outdoor(const ScenarioSpec& spec) {
  LinkWorld world =
      make_outdoor_world(spec.config, spec.link_distance_m, spec.ue_velocity);
  add_link_blockers(world, spec);
  return world;
}

void register_builtin_scenarios(ScenarioRegistry& reg) {
  reg.add("indoor",
          [](const ScenarioSpec& s) { return make_indoor(s, false); });
  reg.add("indoor_sparse",
          [](const ScenarioSpec& s) { return make_indoor(s, true); });
  reg.add("indoor_poor",
          [](const ScenarioSpec& s) { return make_indoor_poor(s); });
  reg.add("outdoor",
          [](const ScenarioSpec& s) { return make_outdoor(s); });
}

void register_builtin_controllers(ControllerRegistry& reg) {
  using Ptr = std::unique_ptr<core::BeamController>;
  reg.add("mmreliable", [](const LinkWorld& w, const ScenarioConfig& c,
                           const ControllerSpec& s) -> Ptr {
    return make_mmreliable(w, c, s.max_beams);
  });
  // Fig. 17c's ablated controller: default maintenance training (not the
  // scenario factory's widened separation) with the tracking and
  // constructive-combining stages individually toggleable.
  reg.add("mmreliable_ablation",
          [](const LinkWorld& w, const ScenarioConfig& /*c*/,
             const ControllerSpec& s) -> Ptr {
            const array::Ula ula = w.config().tx_ula;
            core::MaintenanceConfig mc;
            mc.max_beams = s.max_beams;
            mc.bandwidth_hz = w.config().spec.bandwidth_hz;
            mc.outage_power_linear = w.power_for_snr(kOutageSnrDb);
            mc.enable_tracking = s.enable_tracking;
            mc.enable_cc_refresh = s.enable_cc_refresh;
            return std::make_unique<core::MmReliableController>(
                ula, sector_codebook(ula), mc);
          });
  reg.add("delay_multibeam", [](const LinkWorld& w, const ScenarioConfig& c,
                                const ControllerSpec& s) -> Ptr {
    const array::Ula ula = w.config().tx_ula;
    core::DelayMultibeamConfig dc;
    dc.carrier_hz = w.config().spec.carrier_hz;
    dc.bandwidth_hz = w.config().spec.bandwidth_hz;
    dc.max_beams = s.max_beams;
    return std::make_unique<core::DelayMultibeamController>(
        ula, sector_codebook(ula, c.codebook_size), dc);
  });
  reg.add("reactive", [](const LinkWorld& w, const ScenarioConfig& c,
                         const ControllerSpec& /*s*/) -> Ptr {
    return make_reactive(w, c);
  });
  // The paper's frozen single-beam comparison (Fig. 16): trains once and
  // never reacts (outage threshold 0 disables retraining).
  reg.add("single_frozen", [](const LinkWorld& w, const ScenarioConfig& /*c*/,
                              const ControllerSpec& /*s*/) -> Ptr {
    const array::Ula ula = w.config().tx_ula;
    baselines::ReactiveConfig rc;
    rc.outage_power_linear = 0.0;
    return std::make_unique<baselines::ReactiveSingleBeam>(
        ula, sector_codebook(ula), rc);
  });
  reg.add("beamspy", [](const LinkWorld& w, const ScenarioConfig& c,
                        const ControllerSpec& /*s*/) -> Ptr {
    return make_beamspy(w, c);
  });
  reg.add("widebeam", [](const LinkWorld& w, const ScenarioConfig& c,
                         const ControllerSpec& /*s*/) -> Ptr {
    return make_widebeam(w, c);
  });
  reg.add("oracle", [](const LinkWorld& w, const ScenarioConfig& /*c*/,
                       const ControllerSpec& /*s*/) -> Ptr {
    return std::make_unique<baselines::Oracle>(
        [&w] { return w.true_per_antenna_channel(); });
  });
}

}  // namespace

bool is_outdoor_scenario(const ScenarioSpec& spec) {
  return spec.name.rfind("outdoor", 0) == 0;
}

LinkEndpoints link_endpoints(const ScenarioSpec& spec) {
  if (is_outdoor_scenario(spec)) {
    return {kOutdoorGnbPosition, {spec.link_distance_m, 0.0}};
  }
  return {kIndoorGnbPosition, spec.ue_start};
}

LinkWorld make_indoor(const ScenarioSpec& spec, bool force_sparse) {
  ScenarioConfig config = spec.config;
  if (force_sparse) config.sparse_room = true;
  LinkWorld world = make_indoor_world(config, spec.ue_velocity,
                                      spec.ue_rotation_rate_rad_s,
                                      spec.ue_start);
  add_link_blockers(world, spec);
  return world;
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry* reg = [] {
    auto* r = new ScenarioRegistry();
    register_builtin_scenarios(*r);
    return r;
  }();
  return *reg;
}

void ScenarioRegistry::add(const std::string& name, Factory factory) {
  MMR_EXPECTS(!name.empty());
  MMR_EXPECTS(factory != nullptr);
  factories_[name] = std::move(factory);
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

LinkWorld ScenarioRegistry::make(const ScenarioSpec& spec) const {
  const auto it = factories_.find(spec.name);
  if (it == factories_.end()) throw_unknown("scenario", spec.name, names());
  return it->second(spec);
}

ControllerRegistry& ControllerRegistry::instance() {
  static ControllerRegistry* reg = [] {
    auto* r = new ControllerRegistry();
    register_builtin_controllers(*r);
    return r;
  }();
  return *reg;
}

void ControllerRegistry::add(const std::string& name, Factory factory) {
  MMR_EXPECTS(!name.empty());
  MMR_EXPECTS(factory != nullptr);
  factories_[name] = std::move(factory);
}

bool ControllerRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::vector<std::string> ControllerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

std::unique_ptr<core::BeamController> ControllerRegistry::make(
    const LinkWorld& world, const ScenarioConfig& config,
    const ControllerSpec& spec) const {
  const auto it = factories_.find(spec.name);
  if (it == factories_.end()) throw_unknown("controller", spec.name, names());
  return it->second(world, config, spec);
}

EngineResult Engine::run(const ExperimentSpec& spec, TelemetrySink* sink) {
  MMR_EXPECTS(spec.trials >= 1);
  const ScenarioRegistry& scenarios = ScenarioRegistry::instance();
  const ControllerRegistry& controllers = ControllerRegistry::instance();
  // Fail fast on the authored names; `customize` may rewrite them per
  // trial, and those rewrites are validated inside the trial body.
  if (!scenarios.contains(spec.scenario.name)) {
    throw_unknown("scenario", spec.scenario.name, scenarios.names());
  }
  if (!controllers.contains(spec.controller.name)) {
    throw_unknown("controller", spec.controller.name, controllers.names());
  }

  EngineResult result;
  if (spec.label) result.labels.assign(spec.trials, "");
  if (spec.record_samples) result.samples.resize(spec.trials);
  result.fault_events.resize(spec.trials);
  // Index-addressed failure slots (workers never share a slot).
  std::vector<std::optional<TrialFailure>> failure_slots(spec.trials);

  SweepRunner runner({spec.trials, spec.jobs, spec.seed});
  // Trials only write to index-addressed slots; see sim/sweep.h for the
  // determinism contract.
  result.trials = runner.run([&](TrialContext& ctx) -> core::LinkSummary {
    try {
      ScenarioSpec scenario = spec.scenario;
      ControllerSpec controller = spec.controller;
      RunConfig rc = spec.run;
      if (spec.seed_policy == SeedPolicy::kPerTrialStream) {
        scenario.config.seed = ctx.stream_seed;
      }
      if (spec.customize) spec.customize(ctx, scenario, controller, rc);
      if (spec.label) result.labels[ctx.index] = spec.label(ctx);
      if (rc.faults.enabled()) {
        rc.faults.seed = link_fault_seed(rc.faults.seed, ctx.stream_seed);
      }
      // Per-trial scratch arena for the world's scoring hot path.
      TrialWorkspace workspace;
      LinkSession link(scenario, controller, &workspace);
      RunResult rr = run_experiment(link, rc);
      if (spec.record_samples) {
        result.samples[ctx.index] = std::move(rr.samples);
      }
      result.fault_events[ctx.index] = std::move(rr.fault_events);
      return rr.summary;
    } catch (const std::exception& e) {
      failure_slots[ctx.index] =
          TrialFailure{ctx.index, ctx.stream_seed, e.what()};
    } catch (...) {
      failure_slots[ctx.index] =
          TrialFailure{ctx.index, ctx.stream_seed, "unknown exception"};
    }
    // Quarantine: the trial keeps its slot (default summary), the sweep
    // keeps running, and the failure is reported out-of-band.
    return core::LinkSummary{};
  });
  result.timing = runner.timing();

  for (auto& slot : failure_slots) {
    if (slot.has_value()) result.failures.push_back(std::move(*slot));
  }

  if (spec.freeze_timing) freeze_sweep_timing(result.timing, result.trials);

  // Quarantined trials carry default summaries; keep them out of the
  // aggregate so one bad trial cannot poison the campaign statistics.
  result.aggregate = summarize_survivors(result.trials, result.failures);

  if (sink != nullptr) {
    std::size_t next_failure = 0;
    for (std::size_t i = 0; i < result.trials.size(); ++i) {
      for (const core::FaultEvent& ev : result.fault_events[i]) {
        sink->on_fault(ev);
      }
      if (next_failure < result.failures.size() &&
          result.failures[next_failure].index == i) {
        sink->on_trial_failure(result.failures[next_failure]);
        ++next_failure;
      }
    }
    SweepRecord record;
    record.name = spec.name;
    record.trials = result.trials;
    record.timing = result.timing;
    if (spec.label) record.labels = result.labels;
    record.failures = result.failures;
    sink->on_sweep(record);
  }
  return result;
}

}  // namespace mmr::sim
