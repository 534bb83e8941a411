// Test sink: keeps every telemetry event in memory, in delivery order,
// so a test can compare what a sink heard with what a run returned.
// Included as "tests/common/capture_sink.h" from the repo root.
#pragma once

#include <cstddef>
#include <vector>

#include "core/events.h"
#include "sim/telemetry.h"

namespace mmr::testing {

struct CaptureSink final : sim::TelemetrySink {
  void on_fault(const core::FaultEvent& event) override {
    faults.push_back(event);
  }
  void on_handover(const core::HandoverEvent& event) override {
    handovers.push_back(event);
  }
  void on_trial_failure(const sim::TrialFailure& failure) override {
    failures.push_back(failure);
  }
  void on_snapshot(const sim::StreamSnapshot& snapshot) override {
    snapshots.push_back(snapshot);
  }
  void on_sweep(const sim::SweepRecord& /*record*/) override { ++sweeps; }

  std::vector<core::FaultEvent> faults;
  std::vector<core::HandoverEvent> handovers;
  std::vector<sim::TrialFailure> failures;
  std::vector<sim::StreamSnapshot> snapshots;
  std::size_t sweeps = 0;
};

}  // namespace mmr::testing
