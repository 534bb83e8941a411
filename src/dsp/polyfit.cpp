#include "dsp/polyfit.h"

#include <cmath>

#include "common/error.h"
#include "dsp/linalg.h"

namespace mmr::dsp {

RVec polyfit(const RVec& x, const RVec& y, std::size_t degree) {
  MMR_EXPECTS(x.size() == y.size());
  MMR_EXPECTS(x.size() >= degree + 1);
  const std::size_t m = x.size();
  const std::size_t n = degree + 1;
  // Vandermonde design matrix, stored column by column.
  RVec v(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    double p = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      v[j * m + i] = p;
      p *= x[i];
    }
  }
  // Tiny ridge for numerical safety; does not noticeably bias the fit.
  return ridge_least_squares(v.data(), m, n, y, 1e-12);
}

double polyval(const RVec& coeffs, double x) {
  double acc = 0.0;
  for (std::size_t j = coeffs.size(); j-- > 0;) acc = acc * x + coeffs[j];
  return acc;
}

}  // namespace mmr::dsp
