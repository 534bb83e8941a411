#include "sim/runner.h"

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "phy/link_budget.h"
#include "phy/mcs.h"
#include "sim/engine.h"

namespace mmr::sim {

void RunConfig::validate() const {
  MMR_EXPECTS(duration_s > 0.0);
  MMR_EXPECTS(std::isfinite(duration_s));
  MMR_EXPECTS(tick_s > 0.0);
  MMR_EXPECTS(std::isfinite(tick_s));
  MMR_EXPECTS(std::isfinite(outage_snr_db));
  MMR_EXPECTS(protocol_overhead >= 0.0);
  MMR_EXPECTS(protocol_overhead < 1.0);
  faults.validate();
}

std::uint64_t link_fault_seed(std::uint64_t authored_seed,
                              std::uint64_t link_seed, std::size_t link,
                              std::size_t rebuild) {
  std::uint64_t seed = authored_seed;
  if (seed == 0) {
    seed = Rng::derive_stream_seed(link_seed, kFaultSeedStream);
  } else if (link > 0) {
    seed = Rng::derive_stream_seed(seed, link);
  }
  return rebuild == 0 ? seed : Rng::derive_stream_seed(seed, rebuild);
}

LinkSession::LinkSession(LinkWorld& world, core::BeamController& controller)
    : world_(&world),
      controller_(&controller),
      iface_(world.probe_interface()) {}

LinkSession::LinkSession(const ScenarioSpec& scenario,
                         const ControllerSpec& controller,
                         TrialWorkspace* workspace)
    : owned_world_(ScenarioRegistry::instance().make(scenario)),
      world_(&*owned_world_) {
  if (workspace != nullptr) world_->bind_workspace(workspace);
  owned_controller_ = ControllerRegistry::instance().make(
      *world_, scenario.config, controller);
  controller_ = owned_controller_.get();
  iface_ = world_->probe_interface();
}

void LinkSession::arm_faults(const FaultPlan& plan,
                             const core::FaultListener& listener) {
  MMR_EXPECTS(plan.enabled());
  MMR_EXPECTS(injector_ == nullptr);
  injector_ = std::make_unique<FaultInjector>(plan, iface_);
  iface_ = injector_->interface();
  injector_->set_listener(listener);
  controller_->set_fault_listener(listener);
}

void LinkSession::disarm_faults() {
  if (injector_ == nullptr) return;
  injector_->set_listener(nullptr);
  controller_->set_fault_listener(nullptr);
}

void LinkSession::advance(double t_s) {
  world_->set_time(t_s);
  if (injector_ != nullptr) injector_->on_tick(t_s);
  if (!started_) {
    controller_->start(t_s, iface_);
    started_ = true;
  } else {
    controller_->step(t_s, iface_);
  }
  snr_db_ = world_->true_snr_db(controller_->tx_weights());
}

core::LinkSample LinkSession::score(double t_s, double protocol_overhead,
                                    double interference_power) const {
  core::LinkSample sample;
  sample.t_s = t_s;
  sample.available = controller_->link_available(t_s);
  sample.snr_db = snr_db_;
  if (interference_power != 0.0) {
    sample.snr_db = phy::sinr_db(
        sample.snr_db, interference_power / world_->power_for_snr(0.0));
  }
  sample.throughput_bps =
      sample.available
          ? phy::McsTable::nr().throughput_bps(
                sample.snr_db, world_->config().spec.bandwidth_hz,
                protocol_overhead)
          : 0.0;
  return sample;
}

RunResult run_experiment(LinkWorld& world, core::BeamController& controller,
                         const RunConfig& config) {
  LinkSession link(world, controller);
  return run_experiment(link, config);
}

RunResult run_experiment(LinkSession& link, const RunConfig& config) {
  config.validate();

  RunResult result;
  // The injector is only constructed when the plan is live, so a disabled
  // plan leaves this function's behavior (and output bytes) untouched.
  if (config.faults.enabled()) {
    link.arm_faults(config.faults, [&result](const core::FaultEvent& ev) {
      result.fault_events.push_back(ev);
    });
  }

  const std::size_t num_ticks = config.num_ticks();
  result.samples.reserve(num_ticks);
  for (std::size_t i = 0; i < num_ticks; ++i) {
    const double t = static_cast<double>(i) * config.tick_s;
    link.advance(t);
    result.samples.push_back(link.score(t, config.protocol_overhead));
  }
  // The listener captures locals of this frame; detach it before they go
  // out of scope (the controller may outlive this call).
  link.disarm_faults();
  result.summary = core::summarize_link(
      result.samples, config.outage_snr_db,
      link.world().config().spec.bandwidth_hz);
  return result;
}

}  // namespace mmr::sim
