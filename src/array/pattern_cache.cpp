#include "array/pattern_cache.h"

#include <bit>
#include <cmath>

#include "common/error.h"
#include "common/units.h"

namespace mmr::array {
namespace {

// splitmix64 finalizer: the same mixer Rng::derive_stream_seed builds on;
// good avalanche for bit-pattern keys.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

dsp::CplxBatch steering_vector_batch(const Ula& ula, const RVec& phis_rad) {
  MMR_EXPECTS(ula.num_elements >= 1);
  MMR_EXPECTS(ula.spacing_wavelengths > 0.0);
  dsp::CplxBatch batch(phis_rad.size(), ula.num_elements);
  for (std::size_t r = 0; r < phis_rad.size(); ++r) {
    dsp::phasor_ramp(steering_phase_step(ula, phis_rad[r]), ula.num_elements,
                     batch.row_re(r), batch.row_im(r));
  }
  return batch;
}

CVec array_factor_batch(const Ula& ula, const CVec& weights,
                        const RVec& phis_rad) {
  MMR_EXPECTS(weights.size() == ula.num_elements);
  CVec out(phis_rad.size());
  // One grid-lifetime scratch row: the phasor ramp and the dot run as
  // separate call-free loops (libm sin/cos interleaved with complex
  // multiply-adds serializes badly), while the FP op order — and hence
  // every bit of the result — matches dot_phasor_ramp exactly.
  CVec scratch(weights.size());
  for (std::size_t r = 0; r < phis_rad.size(); ++r) {
    dsp::phasor_ramp(steering_phase_step(ula, phis_rad[r]), scratch.size(),
                     scratch.data());
    out[r] = dsp::cdot(scratch.data(), weights.data(), weights.size());
  }
  return out;
}

RVec power_gain_db_batch(const Ula& ula, const CVec& weights,
                         const RVec& phis_rad) {
  MMR_EXPECTS(weights.size() == ula.num_elements);
  RVec out(phis_rad.size());
  CVec scratch(weights.size());
  for (std::size_t r = 0; r < phis_rad.size(); ++r) {
    dsp::phasor_ramp(steering_phase_step(ula, phis_rad[r]), scratch.size(),
                     scratch.data());
    const cplx af = dsp::cdot(scratch.data(), weights.data(), weights.size());
    out[r] = to_db(std::norm(af));
  }
  return out;
}

PatternCache& PatternCache::instance() {
  static PatternCache cache;
  return cache;
}

std::size_t PatternCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = mix64(k.kind ^ mix64(k.num_elements));
  h = mix64(h ^ k.spacing_bits);
  for (std::uint64_t v : k.payload) h = mix64(h ^ v);
  return static_cast<std::size_t>(h);
}

PatternCache::Shard& PatternCache::shard_for(const Key& key) {
  return shards_[KeyHash{}(key) % kNumShards];
}

template <typename Make>
PatternCache::Entry PatternCache::lookup_or_insert(const Key& key,
                                                   const Make& make) {
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Compute outside the lock: a duplicate race computes the same pure
  // function, and first-insert-wins keeps every caller on one object.
  Entry fresh = make();
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.map.size() >= kMaxEntriesPerShard) shard.map.clear();
  auto [it, inserted] = shard.map.emplace(key, fresh);
  misses_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

std::shared_ptr<const CVec> PatternCache::beam_weights(const Ula& ula,
                                                       double phi_rad) {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return std::make_shared<const CVec>(single_beam_weights(ula, phi_rad));
  }
  Key key;
  key.kind = 0;
  key.num_elements = ula.num_elements;
  key.spacing_bits = bits_of(ula.spacing_wavelengths);
  key.payload = {bits_of(phi_rad)};
  return lookup_or_insert(key, [&] {
           Entry e;
           e.vec = std::make_shared<const CVec>(
               single_beam_weights(ula, phi_rad));
           return e;
         })
      .vec;
}

std::shared_ptr<const PatternCut> PatternCache::cut(const Ula& ula,
                                                    const CVec& weights,
                                                    double lo_rad,
                                                    double hi_rad,
                                                    std::size_t points) {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return std::make_shared<const PatternCut>(
        pattern_cut(ula, weights, lo_rad, hi_rad, points));
  }
  Key key;
  key.kind = 1;
  key.num_elements = ula.num_elements;
  key.spacing_bits = bits_of(ula.spacing_wavelengths);
  key.payload.reserve(3 + 2 * weights.size());
  key.payload.push_back(bits_of(lo_rad));
  key.payload.push_back(bits_of(hi_rad));
  key.payload.push_back(points);
  for (const cplx& w : weights) {
    key.payload.push_back(bits_of(w.real()));
    key.payload.push_back(bits_of(w.imag()));
  }
  return lookup_or_insert(key, [&] {
           Entry e;
           e.pattern = std::make_shared<const PatternCut>(
               pattern_cut(ula, weights, lo_rad, hi_rad, points));
           return e;
         })
      .pattern;
}

void PatternCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
}

void PatternCache::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

bool PatternCache::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

PatternCache::Stats PatternCache::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed)};
}

void PatternCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace mmr::array
