#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mmr {

double percentile(std::span<const double> values, double p) {
  MMR_EXPECTS(!values.empty());
  MMR_EXPECTS(p >= 0.0 && p <= 100.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> values) { return percentile(values, 50.0); }

double mean(std::span<const double> values) {
  MMR_EXPECTS(!values.empty());
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Cdf empirical_cdf(std::span<const double> values) {
  MMR_EXPECTS(!values.empty());
  Cdf cdf;
  cdf.value.assign(values.begin(), values.end());
  std::sort(cdf.value.begin(), cdf.value.end());
  cdf.prob.resize(cdf.value.size());
  const double n = static_cast<double>(cdf.value.size());
  for (std::size_t i = 0; i < cdf.value.size(); ++i) {
    cdf.prob[i] = static_cast<double>(i + 1) / n;
  }
  return cdf;
}

double cdf_at(const Cdf& cdf, double x) {
  MMR_EXPECTS(!cdf.value.empty());
  const auto it = std::upper_bound(cdf.value.begin(), cdf.value.end(), x);
  const auto idx = static_cast<std::size_t>(it - cdf.value.begin());
  return static_cast<double>(idx) / static_cast<double>(cdf.value.size());
}

}  // namespace mmr
