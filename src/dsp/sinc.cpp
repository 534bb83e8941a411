#include "dsp/sinc.h"

#include <cmath>

#include "common/angles.h"
#include "common/error.h"
#include "dsp/backend.h"

namespace mmr::dsp {

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  const double px = kPi * x;
  return std::sin(px) / px;
}

double sampled_sinc_tap(std::size_t n, double ts, double bandwidth, double tau) {
  MMR_EXPECTS(ts > 0.0 && bandwidth > 0.0);
  return sinc(bandwidth * (static_cast<double>(n) * ts - tau));
}

void sinc_column(double ts, double bandwidth, double tau, std::size_t n,
                 double* out) {
  MMR_EXPECTS(ts > 0.0 && bandwidth > 0.0);
  active_table().sinc_column(ts, bandwidth, tau, n, out);
}

RVec sampled_sinc(std::size_t num_taps, double ts, double bandwidth, double tau) {
  RVec out(num_taps);
  sinc_column(ts, bandwidth, tau, num_taps, out.data());
  return out;
}

cplx sinc_interpolate(const CVec& taps, double ts, double bandwidth, double tau) {
  MMR_EXPECTS(ts > 0.0 && bandwidth > 0.0);
  cplx acc{};
  for (std::size_t n = 0; n < taps.size(); ++n) {
    acc += taps[n] * sinc(bandwidth * (tau - static_cast<double>(n) * ts));
  }
  return acc;
}

}  // namespace mmr::dsp
