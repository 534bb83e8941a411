#include "driver/trace.h"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "sim/engine.h"

namespace perfbench {

std::size_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return names_.size() - 1;
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return {};
}

void Tracer::begin(std::size_t id) {
  Open open;
  open.id = id;
  if (spans_.size() < kMaxStoredSpans) {
    Stored s;
    s.name = static_cast<std::uint32_t>(id);
    s.parent = stack_.empty()
                   ? -1
                   : static_cast<std::int32_t>(stack_.back().stored);
    s.op = op_;
    open.stored = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(s);
  }
  open.start_ns = now_ns();
  stack_.push_back(open);
}

void Tracer::end() {
  const std::int64_t end = now_ns();
  if (stack_.empty()) {
    throw std::logic_error("perfbench: span end without begin");
  }
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - open.start_ns;
  Totals& t = totals_[open.id];
  ++t.calls;
  t.busy_ns += dur;
  t.self_ns += dur - open.child_ns;
  if (stack_.empty()) {
    top_level_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  if (open.stored >= 0) {
    Stored& s = spans_[static_cast<std::size_t>(open.stored)];
    s.start_ns = open.start_ns;
    s.end_ns = end;
  }
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << "id\tname\tparent\top\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Stored& s = spans_[i];
    out << i << '\t' << names_[s.name] << '\t' << s.parent << '\t' << s.op
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  if (!out) throw std::runtime_error("perfbench: short write to " + path);
}

void Tracer::reset() {
  if (!stack_.empty()) throw std::logic_error("perfbench: reset inside a span");
  for (Totals& t : totals_) t = {};
  spans_.clear();
  op_ = 0;
  top_level_ns_ = 0;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::string traced_name(const std::string& name) {
  return name + std::string(kTracedSuffix);
}

namespace {

bool is_traced(const std::string& name) {
  return name.size() >= kTracedSuffix.size() &&
         name.compare(name.size() - kTracedSuffix.size(), kTracedSuffix.size(),
                      kTracedSuffix) == 0;
}

/// Forwards every BeamController call to the wrapped controller; times
/// start/step and the probes issued through the link interface.
class TracedController final : public mmr::core::BeamController {
 public:
  TracedController(std::unique_ptr<mmr::core::BeamController> inner,
                   std::size_t start_id, std::size_t step_id,
                   std::size_t probe_id)
      : inner_(std::move(inner)),
        start_id_(start_id),
        step_id_(step_id),
        probe_id_(probe_id) {}

  TracedController(const TracedController&) = delete;
  TracedController& operator=(const TracedController&) = delete;

  void start(double t_s, const mmr::core::LinkProbeInterface& link) override {
    Span span(start_id_);
    inner_->start(t_s, wrap(link));
  }
  void step(double t_s, const mmr::core::LinkProbeInterface& link) override {
    Span span(step_id_);
    inner_->step(t_s, wrap(link));
  }
  const mmr::CVec& tx_weights() const override { return inner_->tx_weights(); }
  bool link_available(double t_s) const override {
    return inner_->link_available(t_s);
  }
  const char* name() const override { return inner_->name(); }
  mmr::core::LinkState link_state(double t_s) const override {
    return inner_->link_state(t_s);
  }
  void set_fault_listener(mmr::core::FaultListener listener) override {
    inner_->set_fault_listener(std::move(listener));
  }

 private:
  /// The probe interface handed to the inner controller: same calls,
  /// each inside a "phy.probe" span. Rebuilt only when the caller passes
  /// a different interface object; the lambdas read the caller's object
  /// at call time, which outlives the start/step call it was passed to.
  const mmr::core::LinkProbeInterface& wrap(
      const mmr::core::LinkProbeInterface& link) {
    if (&link != source_) {
      source_ = &link;
      const mmr::core::LinkProbeInterface* src = &link;
      const std::size_t probe = probe_id_;
      wrapped_.csi = [src, probe](const mmr::CVec& w) {
        Span span(probe);
        return src->csi(w);
      };
      wrapped_.cir = [src, probe](const mmr::CVec& w, std::size_t taps) {
        Span span(probe);
        return src->cir(w, taps);
      };
    }
    return wrapped_;
  }

  std::unique_ptr<mmr::core::BeamController> inner_;
  std::size_t start_id_;
  std::size_t step_id_;
  std::size_t probe_id_;
  const mmr::core::LinkProbeInterface* source_ = nullptr;
  mmr::core::LinkProbeInterface wrapped_;
};

}  // namespace

void register_traced_factories() {
  Tracer& t = tracer();
  const std::size_t build_id = t.intern("sim.world_build");
  const std::size_t probe_id = t.intern("phy.probe");

  auto& scenarios = mmr::sim::ScenarioRegistry::instance();
  for (const std::string& name : scenarios.names()) {
    if (is_traced(name)) continue;
    scenarios.add(traced_name(name),
                  [name, build_id](const mmr::sim::ScenarioSpec& spec) {
                    Span span(build_id);
                    mmr::sim::ScenarioSpec inner = spec;
                    inner.name = name;
                    return mmr::sim::ScenarioRegistry::instance().make(inner);
                  });
  }

  auto& controllers = mmr::sim::ControllerRegistry::instance();
  for (const std::string& name : controllers.names()) {
    if (is_traced(name)) continue;
    const std::size_t start_id = t.intern("core." + name + ".start");
    const std::size_t step_id = t.intern("core." + name + ".step");
    controllers.add(
        traced_name(name),
        [name, build_id, start_id, step_id, probe_id](
            const mmr::sim::LinkWorld& world,
            const mmr::sim::ScenarioConfig& config,
            const mmr::sim::ControllerSpec& spec)
            -> std::unique_ptr<mmr::core::BeamController> {
          std::unique_ptr<mmr::core::BeamController> inner;
          {
            Span span(build_id);
            mmr::sim::ControllerSpec inner_spec = spec;
            inner_spec.name = name;
            inner = mmr::sim::ControllerRegistry::instance().make(
                world, config, inner_spec);
          }
          return std::make_unique<TracedController>(std::move(inner), start_id,
                                                    step_id, probe_id);
        });
  }
}

}  // namespace perfbench
