// Unit tests for the O(1) streaming accumulators (common/streaming_stats.h):
// StreamingMoments against a two-pass recompute, Chan's parallel merge,
// exact P² behavior on small streams, and the integer availability /
// outage counters with their windowed view.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/streaming_stats.h"

namespace {

using namespace mmr;

TEST(StreamingMoments, MatchesNaiveComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  StreamingMoments s;
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_NEAR(s.mean(), 6.2, 1e-12);
  // Sample variance: sum (x - 6.2)^2 / 4 = 148.8 / 4.
  EXPECT_NEAR(s.variance(), 37.2, 1e-9);
  EXPECT_NEAR(s.min(), 1.0, 0.0);
  EXPECT_NEAR(s.max(), 16.0, 0.0);
}

TEST(StreamingMoments, SingleSampleHasZeroVariance) {
  StreamingMoments s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(StreamingMoments, EmptyThrowsOnMean) {
  StreamingMoments s;
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
}

TEST(StreamingMoments, MatchesTwoPassRecompute) {
  Rng rng(0x517EA);
  StreamingMoments streaming;
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.normal(3.0, 2.5);
    streaming.add(x);
    xs.push_back(x);
  }
  // Exact two-pass reference: the mean first, then the squared deviations.
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  const double variance = ss / static_cast<double>(xs.size() - 1);
  EXPECT_EQ(streaming.count(), xs.size());
  EXPECT_EQ(streaming.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(streaming.max(), *std::max_element(xs.begin(), xs.end()));
  EXPECT_NEAR(streaming.mean(), mean, 1e-12 * std::abs(mean));
  EXPECT_NEAR(streaming.variance(), variance, 1e-10 * variance);
  EXPECT_NEAR(streaming.stddev(), std::sqrt(variance),
              1e-10 * std::sqrt(variance));
}

TEST(StreamingMoments, EmptyAndSingletonEdgeCases) {
  StreamingMoments m;
  EXPECT_EQ(m.count(), 0u);
  // mean/min/max are meaningless on an empty stream -- the accumulator
  // enforces that as a precondition (snapshot folds guard on count()).
  EXPECT_THROW(m.mean(), std::exception);
  EXPECT_THROW(m.min(), std::exception);
  EXPECT_EQ(m.variance(), 0.0);
  m.add(4.25);
  EXPECT_EQ(m.count(), 1u);
  EXPECT_EQ(m.mean(), 4.25);
  EXPECT_EQ(m.variance(), 0.0);
  EXPECT_EQ(m.min(), 4.25);
  EXPECT_EQ(m.max(), 4.25);
}

TEST(StreamingMoments, ChanMergeMatchesTheUnshardedStream) {
  Rng rng(0xC4A1);
  StreamingMoments full, left, right;
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.uniform(-50.0, 120.0);
    full.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge_from(right);
  EXPECT_EQ(left.count(), full.count());
  EXPECT_EQ(left.min(), full.min());
  EXPECT_EQ(left.max(), full.max());
  EXPECT_NEAR(left.mean(), full.mean(), 1e-12 * std::abs(full.mean()));
  EXPECT_NEAR(left.variance(), full.variance(), 1e-9 * full.variance());
}

TEST(StreamingMoments, MergingAnEmptyOperandIsIdentity) {
  StreamingMoments filled, empty;
  filled.add(1.0);
  filled.add(2.0);
  filled.add(7.0);
  const double mean = filled.mean();
  const double var = filled.variance();
  filled.merge_from(empty);
  EXPECT_EQ(filled.count(), 3u);
  EXPECT_EQ(filled.mean(), mean);
  EXPECT_EQ(filled.variance(), var);

  StreamingMoments adopt;
  adopt.merge_from(filled);
  EXPECT_EQ(adopt.count(), 3u);
  EXPECT_EQ(adopt.mean(), mean);
  EXPECT_EQ(adopt.min(), 1.0);
  EXPECT_EQ(adopt.max(), 7.0);
}

// The streaming shard-merge story leans on this identity: a
// shard that saw NO sessions merges as a true no-op, down to the last
// bit. Value equality (EXPECT_EQ on doubles) would let -0.0 or a
// squashed NaN payload slip through, so compare the raw IEEE-754 bits.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(StreamingMoments, EmptyShardMergeIsBitwiseIdentity) {
  StreamingMoments filled, empty;
  for (double x : {0.3, -7.25, 1e9, 0.0, 5.5}) filled.add(x);
  const std::uint64_t mean = bits(filled.mean());
  const std::uint64_t var = bits(filled.variance());
  const std::uint64_t lo = bits(filled.min());
  const std::uint64_t hi = bits(filled.max());

  filled.merge_from(empty);  // filled <- empty: nothing changes
  EXPECT_EQ(filled.count(), 5u);
  EXPECT_EQ(bits(filled.mean()), mean);
  EXPECT_EQ(bits(filled.variance()), var);
  EXPECT_EQ(bits(filled.min()), lo);
  EXPECT_EQ(bits(filled.max()), hi);

  StreamingMoments adopt;  // empty <- filled: adopts the exact bits
  adopt.merge_from(filled);
  EXPECT_EQ(adopt.count(), 5u);
  EXPECT_EQ(bits(adopt.mean()), mean);
  EXPECT_EQ(bits(adopt.variance()), var);
  EXPECT_EQ(bits(adopt.min()), lo);
  EXPECT_EQ(bits(adopt.max()), hi);
}

TEST(P2Quantile, EmptyShardMergeIsBitwiseIdentity) {
  P2Quantile filled(0.9), empty(0.9);
  for (int i = 0; i < 50; ++i) filled.add(0.125 * static_cast<double>(i));
  const std::uint64_t q = bits(filled.quantile());
  const std::uint64_t lo = bits(filled.min());
  const std::uint64_t hi = bits(filled.max());

  filled.merge_from(empty);
  EXPECT_EQ(filled.count(), 50u);
  EXPECT_EQ(bits(filled.quantile()), q);
  EXPECT_EQ(bits(filled.min()), lo);
  EXPECT_EQ(bits(filled.max()), hi);

  P2Quantile adopt(0.9);
  adopt.merge_from(filled);
  EXPECT_EQ(adopt.count(), 50u);
  EXPECT_EQ(bits(adopt.quantile()), q);
  EXPECT_EQ(bits(adopt.min()), lo);
  EXPECT_EQ(bits(adopt.max()), hi);
}

TEST(AvailabilityCounter, EmptyShardMergeIsIdentity) {
  AvailabilityCounter filled, empty;
  filled.add(true, true);
  filled.add(true, false);
  filled.add(false, false);
  filled.merge_from(empty);
  EXPECT_EQ(filled.ticks(), 3u);
  EXPECT_EQ(filled.usable(), 1u);
  EXPECT_EQ(filled.outage(), 1u);
  EXPECT_EQ(filled.unavailable(), 1u);

  AvailabilityCounter adopt;
  adopt.merge_from(filled);
  EXPECT_EQ(adopt.ticks(), 3u);
  EXPECT_EQ(adopt.usable(), 1u);
  EXPECT_EQ(adopt.window_ticks(), 3u);
}

TEST(P2Quantile, ExactForFiveOrFewerObservations) {
  P2Quantile median(0.5);
  median.add(9.0);
  EXPECT_EQ(median.quantile(), 9.0);
  median.add(1.0);
  // Linear interpolation over the sorted head {1, 9} at h = 0.5.
  EXPECT_DOUBLE_EQ(median.quantile(), 5.0);
  median.add(5.0);
  EXPECT_EQ(median.quantile(), 5.0);
  median.add(3.0);
  median.add(7.0);
  EXPECT_EQ(median.quantile(), 5.0);
  EXPECT_EQ(median.min(), 1.0);
  EXPECT_EQ(median.max(), 9.0);
}

TEST(P2Quantile, ExtremesNeverDrift) {
  Rng rng(0x9E99);
  P2Quantile q(0.99);
  double lo = 1e300, hi = -1e300;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.normal(0.0, 10.0);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    q.add(x);
  }
  EXPECT_EQ(q.min(), lo);
  EXPECT_EQ(q.max(), hi);
  EXPECT_GE(q.quantile(), lo);
  EXPECT_LE(q.quantile(), hi);
}

TEST(P2Quantile, SmallOperandMergeReplaysSamplesExactly) {
  // A merge where the OTHER side has n < 5 must behave as if its buffered
  // samples had been added directly -- bit for bit.
  Rng rng(0x3E6);
  P2Quantile merged(0.5), direct(0.5), small(0.5);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    merged.add(x);
    direct.add(x);
  }
  const double extras[] = {0.25, 0.75, 0.5};
  for (const double x : extras) {
    small.add(x);
    direct.add(x);
  }
  merged.merge_from(small);
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.quantile(), direct.quantile());
  EXPECT_EQ(merged.min(), direct.min());
  EXPECT_EQ(merged.max(), direct.max());
}

TEST(AvailabilityCounter, CountsUsableOutageAndUnavailableTicks) {
  AvailabilityCounter c;
  c.add(true, true);    // usable
  c.add(true, true);    // usable
  c.add(true, false);   // outage: carrying data below the floor
  c.add(false, true);   // retraining: unavailable regardless of SNR
  c.add(false, false);  // retraining
  EXPECT_EQ(c.ticks(), 5u);
  EXPECT_EQ(c.usable(), 2u);
  EXPECT_EQ(c.outage(), 1u);
  EXPECT_EQ(c.unavailable(), 2u);
  EXPECT_DOUBLE_EQ(c.availability(), 2.0 / 5.0);
}

TEST(AvailabilityCounter, WindowResetsWithoutTouchingCumulative) {
  AvailabilityCounter c;
  for (int i = 0; i < 10; ++i) c.add(true, i % 2 == 0);
  EXPECT_EQ(c.window_ticks(), 10u);
  EXPECT_EQ(c.window_usable(), 5u);
  c.reset_window();
  EXPECT_EQ(c.window_ticks(), 0u);
  EXPECT_EQ(c.window_availability(), 0.0);
  EXPECT_EQ(c.ticks(), 10u);
  EXPECT_EQ(c.usable(), 5u);
  c.add(true, true);
  EXPECT_EQ(c.window_ticks(), 1u);
  EXPECT_DOUBLE_EQ(c.window_availability(), 1.0);
  EXPECT_EQ(c.ticks(), 11u);
}

TEST(AvailabilityCounter, MergeIsExactIntegerAddition) {
  AvailabilityCounter a, b;
  for (int i = 0; i < 7; ++i) a.add(true, true);
  a.add(true, false);
  for (int i = 0; i < 3; ++i) b.add(false, false);
  b.add(true, true);
  a.merge_from(b);
  EXPECT_EQ(a.ticks(), 12u);
  EXPECT_EQ(a.usable(), 8u);
  EXPECT_EQ(a.outage(), 1u);
  EXPECT_EQ(a.unavailable(), 3u);
  EXPECT_EQ(a.window_ticks(), 12u);
}

}  // namespace
