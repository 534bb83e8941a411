// Span tracer for the benchmark's traced runs.
//
// Spans are recorded from OUTSIDE the program: around the benchmark's own
// calls into each layer, and inside thin wrappers registered through the
// public ScenarioRegistry / ControllerRegistry (a wrapped controller
// forwards every call and times its start/step and the probe calls it
// makes through LinkProbeInterface). Nothing under src/ is edited.
//
// The tracer is single-threaded by design: every workload runs with
// jobs=1, so spans open and close on one thread in stack order. Each
// closed span adds its duration to its parent's child time, which gives
// self time = duration - time covered by child spans. Spans are also kept
// in memory (up to a cap) and written out at the end of the run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/controller_base.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// Per-name totals over every closed span.
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t busy_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// Stable id for a span name (interned on first use).
  std::size_t intern(std::string_view name);
  /// Totals by name; all zero for a name never recorded.
  Totals totals(std::string_view name) const;

  void begin(std::size_t id);
  void end();
  /// Operation (trial, epoch or round) the following spans belong to.
  void set_op(std::uint64_t op) { op_ = op; }

  /// Summed duration of depth-0 spans (what the named layers cover).
  std::int64_t top_level_ns() const { return top_level_ns_; }
  std::size_t stored_spans() const { return spans_.size(); }

  /// Write the stored spans (the first kMaxStoredSpans) as tab-separated
  /// lines: id, name, parent id or -1, op, start_ns, end_ns.
  void write(const std::string& path) const;

  /// Forget every span and total (names stay interned).
  void reset();

  static constexpr std::size_t kMaxStoredSpans = 200000;

 private:
  struct Open {
    std::size_t id = 0;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::int64_t stored = -1;  ///< index into spans_, -1 when not stored
  };
  struct Stored {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Stored> spans_;
  std::uint64_t op_ = 0;
  std::int64_t top_level_ns_ = 0;
};

/// The process-wide tracer the wrappers record into.
Tracer& tracer();

/// RAII span on the process-wide tracer; records nothing when disabled.
class Span {
 public:
  explicit Span(std::size_t id, bool enabled = true) : enabled_(enabled) {
    if (enabled_) tracer().begin(id);
  }
  ~Span() {
    if (enabled_) tracer().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool enabled_;
};

/// Suffix of the traced registry entries: "<name>@traced" builds the same
/// object as "<name>" with spans around it. A suffix (not a prefix) keeps
/// name-prefix checks in the net layer ("outdoor...") working.
inline constexpr std::string_view kTracedSuffix = "@traced";
std::string traced_name(const std::string& name);

/// Register "<name>@traced" for every scenario and controller currently in
/// the process-wide registries. Idempotent. Scenario builds and controller
/// builds record "sim.world_build"; a traced controller records
/// "core.<name>.start" / "core.<name>.step", and every csi/cir probe it
/// issues records "phy.probe".
void register_traced_factories();

}  // namespace perfbench
