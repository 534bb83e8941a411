#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "channel/pathloss.h"
#include "common/angles.h"
#include "common/constants.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/terragraph.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/telemetry.h"

namespace mmr::net {
namespace {

inline constexpr std::size_t kNoCell = std::numeric_limits<std::size_t>::max();
/// Sub-stream for the crowd scenarios' walker draws.
inline constexpr std::uint64_t kCrowdSeedStream = 0xC20D;

channel::Vec2 rotate(channel::Vec2 v, double angle_rad) {
  const double c = std::cos(angle_rad), s = std::sin(angle_rad);
  return {v.x * c - v.y * s, v.x * s + v.y * c};
}

double norm(channel::Vec2 v) { return std::hypot(v.x, v.y); }

/// Crowd-blockage scenario: the sparse indoor room (with spec.blockers,
/// the engine convention) plus a seed-derived crowd of walkers crossing
/// the link line at random times/speeds/depths, so a crowd scenario
/// composes with explicit blockage scripts.
sim::LinkWorld make_crowd(const sim::ScenarioSpec& spec, std::size_t min_crowd,
                          std::size_t max_crowd) {
  sim::LinkWorld world = sim::make_indoor(spec, /*force_sparse=*/true);
  const sim::LinkEndpoints link = sim::link_endpoints(spec);
  Rng rng(Rng::derive_stream_seed(spec.config.seed, kCrowdSeedStream));
  const std::size_t n =
      min_crowd + static_cast<std::size_t>(
                      rng.uniform_index(max_crowd - min_crowd + 1));
  for (std::size_t k = 0; k < n; ++k) {
    const double crossing_time_s = rng.uniform(0.1, 0.9);
    const double speed_mps = rng.uniform(0.8, 1.8);
    const double depth_db = rng.uniform(25.0, 35.0);
    world.add_blocker(sim::crossing_blocker(link.tx, link.ue, crossing_time_s,
                                            speed_mps, depth_db));
  }
  return world;
}

}  // namespace

void HandoverConfig::validate() const {
  MMR_EXPECTS(std::isfinite(hysteresis_db) && hysteresis_db >= 0.0);
  MMR_EXPECTS(std::isfinite(time_to_trigger_s) && time_to_trigger_s >= 0.0);
  MMR_EXPECTS(std::isfinite(min_interval_s) && min_interval_s >= 0.0);
}

void NetworkSpec::validate() const {
  MMR_EXPECTS(num_cells >= 1);
  MMR_EXPECTS(ues_per_cell >= 1);
  MMR_EXPECTS(std::isfinite(cell_spacing_m) && cell_spacing_m > 0.0);
  MMR_EXPECTS(std::isfinite(ue_placement_jitter_m) &&
              ue_placement_jitter_m >= 0.0);
  link_state.validate();
  handover.validate();
  interference.validate();
  run.faults.validate();
}

struct Network::Session {
  std::size_t link = 0;
  std::size_t home_cell = 0;
  std::size_t serving_cell = 0;
  std::uint64_t link_seed = 0;
  sim::ScenarioSpec scenario;
  /// World, controller and fault wiring of the serving cell's link;
  /// replaced on handover.
  std::unique_ptr<sim::LinkSession> radio;
  core::LinkStateMachine sm;
  // Global kinematics (macro layer): position = start + velocity * t,
  // independent of which cell currently serves.
  channel::Vec2 global_start{0.0, 0.0};
  channel::Vec2 velocity{0.0, 0.0};
  // Streaming-table state: slot occupancy and local-timeline offset.
  // Batch tables keep birth_s = 0, so local time t - 0.0 is bitwise the
  // shared time and the historical behavior is unchanged.
  bool live = true;
  double birth_s = 0.0;
  // Handover bookkeeping.
  std::size_t ttt_candidate = kNoCell;
  double ttt_since = 0.0;
  double last_handover_s = -1.0e18;
  std::size_t handovers = 0;
  std::vector<core::LinkSample> samples;
  std::vector<core::FaultEvent> faults;

  explicit Session(const core::LinkStateConfig& sm_config) : sm(sm_config) {}

  channel::Vec2 global_pos(double t_s) const {
    return global_start + velocity * t_s;
  }
  double local_time(double t_s) const { return t_s - birth_s; }
};

Network::Network(const NetworkSpec& spec, std::uint64_t stream_seed,
                 sim::TrialWorkspace* workspace, bool populate_sessions)
    : spec_(spec), stream_seed_(stream_seed), workspace_(workspace) {
  spec_.validate();
  if (!populate_sessions) return;
  sessions_.reserve(spec_.num_links());
  for (std::size_t link = 0; link < spec_.num_links(); ++link) join(link, 0.0);
}

Network::~Network() = default;

bool Network::slot_live(std::size_t slot) const {
  return slot < sessions_.size() && sessions_[slot]->live;
}

std::size_t Network::join(std::uint64_t session_id, double birth_s) {
  MMR_EXPECTS(std::isfinite(birth_s) && birth_s >= 0.0);
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = sessions_.size();
    sessions_.push_back(std::make_unique<Session>(spec_.link_state));
    size_slot_scratch();
  }
  Session& s = *sessions_[slot];
  // Reset the recycled slot to a fresh Session, then seed it from the
  // session id exactly like link `session_id` of a batch table.
  s = Session(spec_.link_state);
  build_session(s, session_id);
  s.birth_s = birth_s;
  ++live_count_;
  return slot;
}

void Network::leave(std::size_t slot) {
  MMR_EXPECTS(slot_live(slot));
  Session& s = *sessions_[slot];
  s.radio.reset();
  s.samples.clear();
  s.samples.shrink_to_fit();
  s.faults.clear();
  s.faults.shrink_to_fit();
  s.live = false;
  --live_count_;
  free_slots_.push_back(slot);
}

void Network::build_session(Session& s, std::uint64_t session_id) {
  const auto link = static_cast<std::size_t>(session_id);
  s.link = link;
  // Batch tables fill cell 0 first (link / ues_per_cell); streaming ids
  // beyond the table wrap around the cells with the same formula.
  s.home_cell = (link / spec_.ues_per_cell) % spec_.num_cells;
  s.serving_cell = s.home_cell;
  // Link 0 takes the trial's stream seed VERBATIM -- the single-link
  // collapse depends on it (the engine sets scenario.config.seed =
  // ctx.stream_seed). Other links fork their own streams.
  s.link_seed = link == 0 ? stream_seed_
                          : Rng::derive_stream_seed(stream_seed_, link);
  s.scenario = spec_.link_scenario;
  s.scenario.config.seed = s.link_seed;
  if (link > 0 && spec_.ue_placement_jitter_m > 0.0) {
    Rng place(Rng::derive_stream_seed(s.link_seed, kPlacementSeedStream));
    const double j = spec_.ue_placement_jitter_m;
    if (sim::is_outdoor_scenario(s.scenario)) {
      s.scenario.link_distance_m = std::max(
          1.0, s.scenario.link_distance_m + place.uniform(-j, j));
    } else {
      s.scenario.ue_start.x += place.uniform(-j, j);
      s.scenario.ue_start.y += place.uniform(-j, j);
    }
    if (s.scenario.ue_velocity.x != 0.0 || s.scenario.ue_velocity.y != 0.0) {
      // Spread the crowd: same speed, random heading per session.
      s.scenario.ue_velocity =
          rotate(s.scenario.ue_velocity, place.uniform(0.0, 2.0 * kPi));
    }
  }
  s.velocity = s.scenario.ue_velocity;
  const channel::Vec2 origin{static_cast<double>(s.home_cell) *
                                 spec_.cell_spacing_m,
                             0.0};
  s.global_start = origin + sim::link_endpoints(s.scenario).ue;

  connect(s);
}

void Network::connect(Session& s) {
  s.radio = std::make_unique<sim::LinkSession>(s.scenario, spec_.controller,
                                               workspace_);
  if (spec_.run.faults.enabled()) {
    sim::FaultPlan plan = spec_.run.faults;
    plan.seed =
        sim::link_fault_seed(plan.seed, s.link_seed, s.link, s.handovers);
    Session* sp = &s;
    s.radio->arm_faults(plan, [sp](const core::FaultEvent& ev) {
      sp->faults.push_back(ev);
    });
  }
}

double Network::cell_rsrp_db(const Session& s, std::size_t cell,
                             double t_s) const {
  const channel::Vec2 gnb =
      channel::Vec2{static_cast<double>(cell) * spec_.cell_spacing_m, 0.0} +
      sim::link_endpoints(spec_.link_scenario).tx;
  const sim::WorldConfig& world = s.radio->world().config();
  const double d = std::max(1.0, norm(s.global_pos(t_s) - gnb));
  // Boresight sync beam: matched beamforming over N elements yields
  // |a^H w|^2 = N for unit-norm weights.
  const double n = static_cast<double>(world.tx_ula.num_elements);
  return to_db(n) - channel::propagation_loss_db(d, world.spec.carrier_hz);
}

void Network::accumulate_interference(double t_s) {
  // Per-interferer batched fold (interferer_gain_batch_into is
  // bitwise-identical to the scalar interferer_gain on every backend):
  // interferers walk the slots in order and scatter-add their leaked gain
  // into each victim's accumulator -- the SAME addends in the SAME order
  // as the historical per-victim scalar loop, so the folded totals keep
  // their bits. Allocation-free: all scratch is slot-sized and resized
  // only on join().
  const std::size_t n = sessions_.size();
  const channel::Vec2 tx_local = sim::link_endpoints(spec_.link_scenario).tx;
  for (std::size_t v = 0; v < n; ++v) {
    inr_accum_[v] = 0.0;
    if (!sessions_[v]->live) continue;
    const channel::Vec2 pos = sessions_[v]->global_pos(
        sessions_[v]->local_time(t_s));
    pos_x_[v] = pos.x;
    pos_y_[v] = pos.y;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Session& o = *sessions_[i];
    if (!o.live) continue;
    const core::BeamController& ctrl = o.radio->controller();
    // Only links currently serving data transmit; a training sweep's
    // SSBs are discounted as protocol overhead, not interference.
    if (!ctrl.link_available(o.local_time(t_s))) continue;
    const channel::Vec2 gnb =
        channel::Vec2{static_cast<double>(o.serving_cell) *
                          spec_.cell_spacing_m,
                      0.0} +
        tx_local;
    std::size_t count = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (v == i || !sessions_[v]->live) continue;
      const channel::Vec2 delta{pos_x_[v] - gnb.x, pos_y_[v] - gnb.y};
      const double d = norm(delta);
      if (d <= 0.0) continue;
      // All cells share one array orientation (boresight +x), so the
      // victim's angle in the interferer's frame is the global bearing.
      batch_angles_[count] = std::atan2(delta.y, delta.x);
      batch_dist_[count] = d;
      batch_victim_[count] = v;
      ++count;
    }
    if (count == 0) continue;
    const sim::WorldConfig& world = o.radio->world().config();
    interferer_gain_batch_into(
        world.tx_ula, ctrl.tx_weights(),
        std::span<const double>(batch_angles_.data(), count),
        std::span<const double>(batch_dist_.data(), count),
        world.spec.carrier_hz,
        spec_.interference.coupling_loss_db,
        std::span<double>(batch_gain_.data(), count));
    for (std::size_t k = 0; k < count; ++k) {
      inr_accum_[batch_victim_[k]] += batch_gain_[k];
    }
  }
}

void Network::drive_state(Session& s, double t_s, double sinr_db_value) {
  s.sm.poll(t_s);
  core::LinkState desired = s.radio->controller().link_state(t_s);
  if (desired == core::LinkState::kUp &&
      sinr_db_value < spec_.run.outage_snr_db) {
    desired = core::LinkState::kUnstable;
  }
  // Walk the unique legal event path toward `desired`; at most three
  // hops (Down -> Acquisition -> Up -> Unstable). The up-dwell
  // hysteresis may legitimately suppress the final error burst.
  for (int hop = 0; hop < 3 && s.sm.state() != desired; ++hop) {
    switch (s.sm.state()) {
      case core::LinkState::kDown:
        s.sm.apply(t_s, core::LinkEvent::kAcquire);
        break;
      case core::LinkState::kAcquisition:
        if (desired == core::LinkState::kDown) {
          s.sm.apply(t_s, core::LinkEvent::kAcquisitionFailure);
        } else {
          s.sm.apply(t_s, core::LinkEvent::kAcquisitionSuccess);
        }
        break;
      case core::LinkState::kUp:
        if (desired == core::LinkState::kUnstable) {
          if (!s.sm.apply(t_s, core::LinkEvent::kErrorBurst)) return;
        } else {
          // Controller fell back to (re)training or tore down.
          s.sm.apply(t_s, core::LinkEvent::kLinkLost);
        }
        break;
      case core::LinkState::kUnstable:
        if (desired == core::LinkState::kUp) {
          s.sm.apply(t_s, core::LinkEvent::kRecovered);
        } else {
          s.sm.apply(t_s, core::LinkEvent::kRecoveryTimeout);
        }
        break;
    }
  }
}

void Network::evaluate_handover(Session& s, double t_s) {
  if (t_s - s.last_handover_s < spec_.handover.min_interval_s) return;
  const double serving = cell_rsrp_db(s, s.serving_cell, t_s);
  std::size_t best_cell = kNoCell;
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < spec_.num_cells; ++c) {
    if (c == s.serving_cell) continue;
    const double rsrp = cell_rsrp_db(s, c, t_s);
    if (rsrp > best) {
      best = rsrp;
      best_cell = c;
    }
  }
  if (best_cell == kNoCell || best < serving + spec_.handover.hysteresis_db) {
    s.ttt_candidate = kNoCell;
    return;
  }
  if (s.ttt_candidate != best_cell) {
    s.ttt_candidate = best_cell;
    s.ttt_since = t_s;
  }
  if (t_s - s.ttt_since >= spec_.handover.time_to_trigger_s) {
    execute_handover(s, t_s, best_cell, serving, best);
  }
}

void Network::execute_handover(Session& s, double t_s, std::size_t to_cell,
                               double rsrp_from_db, double rsrp_to_db) {
  ++s.handovers;
  s.last_handover_s = t_s;
  s.ttt_candidate = kNoCell;
  s.sm.apply(t_s, core::LinkEvent::kLinkLost);
  const std::size_t from_cell = s.serving_cell;
  s.serving_cell = to_cell;

  // Rebuild the cell-local world around the UE's current global position.
  // The factories' trajectories are absolute-time (start + v * t), so the
  // new local start is back-propagated to t = 0.
  const channel::Vec2 origin{static_cast<double>(to_cell) *
                                 spec_.cell_spacing_m,
                             0.0};
  const channel::Vec2 local_now = s.global_pos(t_s) - origin;
  if (sim::is_outdoor_scenario(s.scenario)) {
    // The outdoor factory only knows a boresight distance; project.
    s.scenario.link_distance_m =
        std::max(1.0, norm(local_now - s.velocity * t_s));
  } else {
    s.scenario.ue_start = local_now - s.velocity * t_s;
  }
  s.scenario.config.seed = Rng::derive_stream_seed(
      Rng::derive_stream_seed(s.link_seed, kHandoverSeedStream), s.handovers);
  connect(s);

  core::HandoverEvent ev;
  ev.t_s = t_s;
  ev.link = s.link;
  ev.from_cell = from_cell;
  ev.to_cell = to_cell;
  ev.rsrp_from_db = rsrp_from_db;
  ev.rsrp_to_db = rsrp_to_db;
  handover_events_.push_back(ev);
}

void Network::begin() {
  spec_.run.validate();
  handover_events_.clear();
  const std::size_t num_ticks = spec_.run.num_ticks();
  for (auto& s : sessions_) {
    if (s->radio != nullptr) s->radio->restart();
    s->samples.clear();
    if (record_samples_ && s->live) s->samples.reserve(num_ticks);
  }
  size_slot_scratch();
}

void Network::size_slot_scratch() {
  const std::size_t n = sessions_.size();
  tick_samples_.resize(n);
  inr_accum_.resize(n);
  pos_x_.resize(n);
  pos_y_.resize(n);
  batch_angles_.resize(n);
  batch_dist_.resize(n);
  batch_gain_.resize(n);
  batch_victim_.resize(n);
}

void Network::advance_pass(double t_s) {
  for (auto& sp : sessions_) {
    if (sp->live) sp->radio->advance(sp->local_time(t_s));
  }
}

void Network::scoring_pass(double t_s) {
  const bool interference_on = spec_.interference.enabled && live_count_ > 1;
  if (interference_on) accumulate_interference(t_s);
  // Every link scored against the TRUE channel with the other links'
  // current beams folded in as interference.
  for (std::size_t slot = 0; slot < sessions_.size(); ++slot) {
    Session& s = *sessions_[slot];
    if (!s.live) continue;
    const double t = s.local_time(t_s);
    const core::LinkSample sample = s.radio->score(
        t, spec_.run.protocol_overhead,
        interference_on ? inr_accum_[slot] : 0.0);
    tick_samples_[slot] = sample;
    if (record_samples_) s.samples.push_back(sample);
    drive_state(s, t, sample.snr_db);
  }
}

void Network::handover_pass(double t_s) {
  for (auto& sp : sessions_) {
    if (sp->live) evaluate_handover(*sp, sp->local_time(t_s));
  }
}

void Network::step_tick(double t_s) {
  advance_pass(t_s);
  scoring_pass(t_s);
  if (spec_.handover.enabled && spec_.num_cells > 1) handover_pass(t_s);
}

NetworkResult Network::run(sim::TelemetrySink* sink) {
  begin();
  for (std::size_t i = 0; i < spec_.run.num_ticks(); ++i) {
    step_tick(static_cast<double>(i) * spec_.run.tick_s);
  }
  return finish(sink);
}

NetworkResult Network::finish(sim::TelemetrySink* sink) {
  const sim::RunConfig& rc = spec_.run;
  NetworkResult result;
  result.links.reserve(live_count_);
  for (auto& sp : sessions_) {
    Session& s = *sp;
    if (!s.live) continue;
    // Close the availability ledger at the nominal end of the run (this
    // may legitimately fire a final deadline transition).
    s.sm.poll(rc.duration_s);
    const double bandwidth = s.radio->world().config().spec.bandwidth_hz;
    LinkReport report;
    report.link = s.link;
    report.serving_cell = s.serving_cell;
    report.summary =
        core::summarize_link(s.samples, rc.outage_snr_db, bandwidth);
    report.handovers = s.handovers;
    report.time_down_s = s.sm.time_in(core::LinkState::kDown);
    report.time_acquisition_s = s.sm.time_in(core::LinkState::kAcquisition);
    report.time_up_s = s.sm.time_in(core::LinkState::kUp);
    report.time_unstable_s = s.sm.time_in(core::LinkState::kUnstable);
    report.final_state = s.sm.state();
    report.faults = s.faults;
    result.links.push_back(std::move(report));
  }
  result.handovers = handover_events_;
  std::stable_sort(result.handovers.begin(), result.handovers.end(),
                   [](const core::HandoverEvent& a,
                      const core::HandoverEvent& b) { return a.t_s < b.t_s; });

  // Per-field means over links. Every field is finite and non-negative,
  // so for one link (0.0 + x / 1.0) is that link's summary bit for bit.
  core::LinkSummary& agg = result.network;
  const double n = static_cast<double>(result.links.size());
  for (const LinkReport& r : result.links) {
    agg.reliability += r.summary.reliability / n;
    agg.mean_throughput_bps += r.summary.mean_throughput_bps / n;
    agg.mean_spectral_efficiency += r.summary.mean_spectral_efficiency / n;
    agg.throughput_reliability_product +=
        r.summary.throughput_reliability_product / n;
    agg.num_samples += r.summary.num_samples;
  }

  if (sink != nullptr) {
    for (const core::HandoverEvent& ev : result.handovers) {
      sink->on_handover(ev);
    }
  }
  return result;
}

void register_net_builtins() {
  static const bool once = [] {
    auto& scenarios = sim::ScenarioRegistry::instance();
    if (!scenarios.contains("indoor_crowd")) {
      scenarios.add("indoor_crowd", [](const sim::ScenarioSpec& s) {
        return make_crowd(s, 2, 4);
      });
      scenarios.add("indoor_crowd_dense", [](const sim::ScenarioSpec& s) {
        return make_crowd(s, 5, 8);
      });
    }
    auto& controllers = sim::ControllerRegistry::instance();
    if (!controllers.contains("terragraph")) {
      controllers.add(
          "terragraph",
          [](const sim::LinkWorld& w, const sim::ScenarioConfig& c,
             const sim::ControllerSpec&)
              -> std::unique_ptr<core::BeamController> {
            const array::Ula ula = w.config().tx_ula;
            TerragraphConfig tc;
            tc.outage_power_linear = w.power_for_snr(kOutageSnrDb);
            return std::make_unique<TerragraphController>(
                ula, sim::sector_codebook(ula, c.codebook_size), tc);
          });
    }
    return true;
  }();
  (void)once;
}

}  // namespace mmr::net
