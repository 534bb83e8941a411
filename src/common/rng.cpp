#include "common/rng.h"

#include <cmath>

#include "common/angles.h"
#include "common/error.h"

namespace mmr {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64: expands one seed word into the four xoshiro state words.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  MMR_EXPECTS(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller. uniform() can return exactly 0; nudge to avoid log(0).
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  cached_normal_ = r * std::sin(2.0 * kPi * u2);
  has_cached_normal_ = true;
  return r * std::cos(2.0 * kPi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

cplx Rng::complex_normal(double variance) {
  const double s = std::sqrt(variance / 2.0);
  return {normal(0.0, s), normal(0.0, s)};
}

void Rng::fill_normal(double* out, std::size_t n, BoxMullerFn box_muller) {
  std::size_t i = 0;
  if (n > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    out[i++] = cached_normal_;
  }
  const std::size_t pairs = (n - i) / 2;
  for (std::size_t j = i; j < i + 2 * pairs; ++j) out[j] = uniform();
  box_muller(out + i, pairs, out + i);
  i += 2 * pairs;
  if (i < n) {
    double pair[2] = {uniform(), uniform()};
    box_muller(pair, 1, pair);
    out[i] = pair[0];
    cached_normal_ = pair[1];
    has_cached_normal_ = true;
  }
}

void Rng::fill_complex_normal(cplx* out, std::size_t n, double variance,
                              BoxMullerFn box_muller) {
  // std::complex<double> is layout-compatible with double[2].
  double* parts = reinterpret_cast<double*>(out);
  fill_normal(parts, 2 * n, box_muller);
  const double s = std::sqrt(variance / 2.0);
  for (std::size_t j = 0; j < 2 * n; ++j) parts[j] = 0.0 + s * parts[j];
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  MMR_EXPECTS(mean > 0.0);
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

Rng Rng::fork() { return Rng(next_u64()); }

Rng Rng::fork(std::uint64_t stream_id) const {
  return Rng(derive_stream_seed(seed_, stream_id));
}

std::uint64_t Rng::derive_stream_seed(std::uint64_t base_seed,
                                      std::uint64_t stream_id) {
  // Two splitmix64 rounds decorrelate adjacent stream ids; mixing the
  // hashed base seed into the stream counter keeps streams of different
  // base seeds disjoint (base 1 / stream 2 != base 2 / stream 1).
  std::uint64_t sm = base_seed;
  const std::uint64_t base_hash = splitmix64(sm);
  sm = base_hash ^ (stream_id + 0x6A09E667F3BCC909ull);
  (void)splitmix64(sm);
  return splitmix64(sm);
}

}  // namespace mmr
