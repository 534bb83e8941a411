// Per-trial scratch bundle: one Arena plus the pmr containers the
// LinkWorld scoring hot path (set_time + true_snr_db) draws from. The
// engine creates one TrialWorkspace per trial and binds it to the
// trial's world (LinkWorld::bind_workspace), so a steady-state trial
// performs zero heap allocations in its scoring loop (proven by
// tests/alloc/zero_alloc_test.cpp).
//
// The delay-phasor slot holds ONE world's per-tick phasor table, keyed
// by a tick id the workspace hands out (next_tick_id). Every set_time and
// bind of every world bound here takes a fresh id, so a key match means
// "this world, these paths": worlds that share the workspace (a network's
// sessions, a streaming shard) evict each other but never read each
// other's table. One shared slot rather than one table per world keeps a
// many-session shard's footprint that of one table.
//
// Lifetime rules (see common/arena.h): the scratch containers live ON
// the arena, so reset() must destroy and reconstruct them -- their
// internal capacity pointers dangle the moment the arena rewinds. The
// std::optional dance below enforces that ordering. The workspace must
// outlive any world it is bound to.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <optional>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "dsp/kernels.h"

namespace mmr::sim {

class TrialWorkspace {
 public:
  TrialWorkspace() { scratch_.emplace(&arena_); }

  TrialWorkspace(const TrialWorkspace&) = delete;
  TrialWorkspace& operator=(const TrialWorkspace&) = delete;

  /// Rewind the arena and rebuild the scratch containers on it. An
  /// identical trial replayed after reset() reuses the identical chunk
  /// memory (Arena::reset keeps chunks) and produces bit-identical
  /// results (pinned by the props tier).
  /// The phasor slot comes back empty; tick ids keep counting, so a world
  /// still holding an id from before the reset can never match.
  void reset() {
    scratch_.reset();  // destroy containers BEFORE their storage rewinds
    arena_.reset();
    scratch_.emplace(&arena_);
  }

  Arena& arena() { return arena_; }

  /// Cached subcarrier frequency grid and its dsp::FreqGrid view (filled
  /// lazily by LinkWorld; keyed by the spec's subcarrier count and
  /// bandwidth, the only inputs of WidebandSpec::freq_offset).
  struct Grid {
    explicit Grid(std::pmr::memory_resource* mr) : freqs(mr) {}
    std::pmr::vector<double> freqs;
    dsp::FreqGrid view;
    double bandwidth_hz = 0.0;
  };
  Grid& grid() { return scratch_->grid; }
  /// CSI scratch for received_power_prepared (overwritten every call).
  std::pmr::vector<cplx>& csi() { return scratch_->csi; }

  /// One tick's delay-phasor table (channel::fill_delay_phasors) and the
  /// tick id it was filled for; tick 0 means empty.
  struct PhasorSlot {
    explicit PhasorSlot(std::pmr::memory_resource* mr) : table(mr) {}
    std::pmr::vector<cplx> table;
    std::uint64_t tick = 0;
  };
  PhasorSlot& phasors() { return scratch_->phasors; }
  /// A tick id no earlier call returned (never 0).
  std::uint64_t next_tick_id() { return ++last_tick_id_; }

 private:
  struct Scratch {
    explicit Scratch(std::pmr::memory_resource* mr)
        : grid(mr), csi(mr), phasors(mr) {}
    Grid grid;
    std::pmr::vector<cplx> csi;
    PhasorSlot phasors;
  };

  Arena arena_;
  std::optional<Scratch> scratch_;
  std::uint64_t last_tick_id_ = 0;
};

}  // namespace mmr::sim
