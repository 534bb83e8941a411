// Deterministic PRNG for reproducible experiments.
//
// Every stochastic component (channel realizations, blocker arrival, CFO
// drift, AWGN) draws from an explicitly seeded Rng so that figure
// reproductions are bit-stable across runs. The generator is
// xoshiro256++, which is fast, tiny, and has no global state.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace mmr {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal (Box-Muller; caches the second sample).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Circularly-symmetric complex Gaussian with E[|x|^2] = variance.
  cplx complex_normal(double variance = 1.0);

  /// The Box-Muller step of normal() over interleaved uniform pairs, in
  /// place (see dsp::box_muller). dsp depends on common, so the batch
  /// fills take the kernel as an argument; dsp::fill_normal passes the
  /// active backend's.
  using BoxMullerFn = void (*)(const double* uniforms, std::size_t pairs,
                               double* normals);

  /// out[0..n) = n sequential normal() calls: a cached sample first, then
  /// the same uniforms in the same order, and for an odd remainder the
  /// second sample of the last pair left cached -- the generator ends in
  /// the state the sequential calls leave. `box_muller` transforms the
  /// uniform pairs; with the scalar kernel the values are bit-identical.
  void fill_normal(double* out, std::size_t n, BoxMullerFn box_muller);

  /// out[0..n) = n sequential complex_normal(variance) calls (fill_normal
  /// of 2n reals, scaled as complex_normal scales them).
  void fill_complex_normal(cplx* out, std::size_t n, double variance,
                           BoxMullerFn box_muller);

  /// True with probability p.
  bool bernoulli(double p);

  /// Exponential with given mean. Requires mean > 0.
  double exponential(double mean);

  /// Fork an independent stream (e.g. one per experiment repetition).
  /// Mutates this generator: consecutive calls return different streams.
  Rng fork();

  /// Fork the sub-stream `stream_id` of this generator's seed. Pure: the
  /// result depends only on (construction seed, stream_id), never on how
  /// many draws or forks happened in between, so parallel Monte-Carlo
  /// trials get identical streams regardless of scheduling or call order.
  Rng fork(std::uint64_t stream_id) const;

  /// Seed of the independent sub-stream `stream_id` under `base_seed`
  /// (splitmix64-based mixing; what fork(stream_id) seeds its child with).
  static std::uint64_t derive_stream_seed(std::uint64_t base_seed,
                                          std::uint64_t stream_id);

  /// The seed this generator was constructed with.
  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace mmr
