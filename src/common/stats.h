// Batch statistics used by the experiment harness: means, percentiles,
// empirical CDFs. The O(1) streaming accumulators (Welford moments,
// P-square quantiles) live in common/streaming_stats.h.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mmr {

/// Percentile of a sample set with linear interpolation, p in [0, 100].
/// Requires a non-empty input.
double percentile(std::span<const double> values, double p);

/// Median shorthand.
double median(std::span<const double> values);

double mean(std::span<const double> values);

/// Empirical CDF evaluated at `points.size()` evenly spaced quantiles.
struct Cdf {
  std::vector<double> value;  ///< sorted sample values
  std::vector<double> prob;   ///< P(X <= value[i])
};

/// Build the empirical CDF of `values` (full resolution, sorted copy).
Cdf empirical_cdf(std::span<const double> values);

/// Evaluate an empirical CDF at x: fraction of samples <= x.
double cdf_at(const Cdf& cdf, double x);

}  // namespace mmr
