// Batched beamforming evaluation + a process-wide memoizing pattern cache.
//
// Batched API: steering vectors / array factors / power gains over whole
// angle grids in one call, backed by the dsp::kernels primitives (single
// contiguous SoA allocation, fused inner products, no per-angle
// temporaries). Results are bit-identical to the scalar
// functions in geometry.h / pattern.h — same per-element ops, same order.
//
// PatternCache: parallel sweep workers re-derive the same single-beam
// weights and pattern cuts thousands of times per campaign (every trial
// rebuilds the sector codebook; every probe resynthesizes multi-beams
// from the same trained angles). The cache memoizes those pure functions
// behind sharded mutexes so workers share one computation.
//
// Determinism: a cached value is the exact output of the scalar function
// for its key, so which worker computes it first is unobservable — sweep
// output stays bit-identical across --jobs, cache on or off (enforced by
// sweep_golden_test and kernel_differential_test).
//
// Key quantization: keys hash the raw IEEE-754 bit patterns of every
// double (geometry, angle, bounds, weights) — the finest "quantization"
// that can never alias two different inputs. Lossy rounding would break
// the bit-compatibility contract. Full keys are stored and compared on
// lookup, so hash collisions cannot return a wrong entry.
//
// Invalidation: entries are immutable and never stale (keys capture every
// input). A shard that exceeds kMaxEntriesPerShard is flushed wholesale —
// a size bound, not a correctness event; the next miss recomputes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "array/pattern.h"
#include "dsp/kernels.h"

namespace mmr::array {

/// Steering vectors a(phi_r) for every angle in `phis_rad` (rows = angles,
/// cols = elements), one contiguous SoA allocation.
dsp::CplxBatch steering_vector_batch(const Ula& ula, const RVec& phis_rad);

/// Array factors a(phi_r)^T w over an angle grid, fused — no steering
/// vectors are materialized.
CVec array_factor_batch(const Ula& ula, const CVec& weights,
                        const RVec& phis_rad);

/// Power gains |a(phi_r)^T w|^2 in dB over an angle grid (the pattern_cut
/// inner loop).
RVec power_gain_db_batch(const Ula& ula, const CVec& weights,
                         const RVec& phis_rad);

/// Process-wide memoization of pure beamforming derivations, shared by all
/// sweep workers. Thread-safe via sharded mutexes; values are immutable
/// shared_ptrs, so a returned result stays valid across clear()/flushes.
class PatternCache {
 public:
  static constexpr std::size_t kNumShards = 16;
  static constexpr std::size_t kMaxEntriesPerShard = 1024;

  /// The process-wide instance every rewired caller uses.
  static PatternCache& instance();

  PatternCache() = default;
  PatternCache(const PatternCache&) = delete;
  PatternCache& operator=(const PatternCache&) = delete;

  /// Memoized single_beam_weights(ula, phi_rad).
  std::shared_ptr<const CVec> beam_weights(const Ula& ula, double phi_rad);

  /// Memoized pattern_cut(ula, weights, lo, hi, points).
  std::shared_ptr<const PatternCut> cut(const Ula& ula, const CVec& weights,
                                        double lo_rad, double hi_rad,
                                        std::size_t points);

  /// Drop every entry (outstanding shared_ptrs stay valid).
  void clear();

  /// Disable to force every lookup to recompute (differential tests use
  /// this to compare cached vs uncached paths). Enabled by default.
  void set_enabled(bool enabled);
  bool enabled() const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const;
  void reset_stats();

 private:
  struct Key {
    std::uint64_t kind = 0;  ///< 0 = beam weights, 1 = pattern cut
    std::uint64_t num_elements = 0;
    std::uint64_t spacing_bits = 0;
    /// Raw bit patterns of the remaining scalar inputs (angle, or
    /// lo/hi/points followed by the weight vector's re/im planes).
    std::vector<std::uint64_t> payload;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Entry {
    std::shared_ptr<const CVec> vec;
    std::shared_ptr<const PatternCut> pattern;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, Entry, KeyHash> map;
  };

  Shard& shard_for(const Key& key);
  /// Returns the cached entry or inserts `make()`'s result; nullopt-like
  /// bypass when disabled is handled by the callers.
  template <typename Make>
  Entry lookup_or_insert(const Key& key, const Make& make);

  std::array<Shard, kNumShards> shards_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace mmr::array
