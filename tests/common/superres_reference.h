// Reference super-resolution solve for differential tests: the general
// complex-matrix implementation the production fit (core/superres.cpp,
// dsp/linalg) replaced. It builds a complex sinc dictionary for every
// candidate delay set and solves the ridge normal equations
// (S^H S + lambda I) alpha = S^H h with a complex Cholesky factor, every
// product a fresh heap matrix. The production solve must match it bit for
// bit (tests/props/superres_props_test.cpp); keep this code exactly as it
// is, since its order of evaluation IS the contract.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "common/types.h"
#include "core/superres.h"
#include "dsp/sinc.h"

namespace mmr::testing::reference {

/// Row-major dense complex matrix with bounds-checked access.
class CMatrix {
 public:
  CMatrix() = default;
  CMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, cplx{}) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  cplx& operator()(std::size_t r, std::size_t c) {
    MMR_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const cplx& operator()(std::size_t r, std::size_t c) const {
    MMR_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Conjugate transpose.
  CMatrix hermitian() const {
    CMatrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        out(c, r) = std::conj((*this)(r, c));
      }
    }
    return out;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  CVec data_;
};

inline CMatrix operator*(const CMatrix& a, const CMatrix& b) {
  MMR_EXPECTS(a.cols() == b.rows());
  CMatrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const cplx aik = a(i, k);
      if (aik == cplx{}) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += aik * b(k, j);
      }
    }
  }
  return out;
}

inline CVec operator*(const CMatrix& a, const CVec& x) {
  MMR_EXPECTS(a.cols() == x.size());
  CVec out(a.rows(), cplx{});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    cplx acc{};
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * x[j];
    out[i] = acc;
  }
  return out;
}

/// Hermitian positive-definite solve A x = b via Cholesky (A = L L^H).
/// Throws std::runtime_error if A is not (numerically) positive definite.
inline CVec cholesky_solve(const CMatrix& a, const CVec& b) {
  MMR_EXPECTS(a.rows() == a.cols());
  MMR_EXPECTS(a.rows() == b.size());
  const std::size_t n = a.rows();
  // Factor A = L L^H (lower triangular L).
  CMatrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      cplx sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * std::conj(l(j, k));
      if (i == j) {
        const double diag = sum.real();
        if (diag <= 0.0 || std::abs(sum.imag()) > 1e-9 * (1.0 + diag)) {
          throw std::runtime_error(
              "cholesky_solve: matrix is not positive definite");
        }
        l(i, j) = cplx{std::sqrt(diag), 0.0};
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  // Forward substitution L y = b.
  CVec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    cplx sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  // Back substitution L^H x = y.
  CVec x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    cplx sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= std::conj(l(k, ii)) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

/// argmin_x ||b - S x||^2 + lambda ||x||^2 via (S^H S + lambda I) x = S^H b.
inline CVec ridge_least_squares(const CMatrix& s, const CVec& b,
                                double lambda) {
  MMR_EXPECTS(lambda > 0.0);
  MMR_EXPECTS(s.rows() == b.size());
  const CMatrix sh = s.hermitian();
  CMatrix gram = sh * s;
  for (std::size_t i = 0; i < gram.rows(); ++i) gram(i, i) += lambda;
  const CVec rhs = sh * b;
  return cholesky_solve(gram, rhs);
}

/// Polynomial least squares through the complex solver (imag parts zero).
inline RVec polyfit(const RVec& x, const RVec& y, std::size_t degree) {
  MMR_EXPECTS(x.size() == y.size());
  MMR_EXPECTS(x.size() >= degree + 1);
  const std::size_t m = x.size();
  const std::size_t n = degree + 1;
  CMatrix v(m, n);
  CVec rhs(m);
  for (std::size_t i = 0; i < m; ++i) {
    double p = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      v(i, j) = cplx{p, 0.0};
      p *= x[i];
    }
    rhs[i] = cplx{y[i], 0.0};
  }
  const CVec c = ridge_least_squares(v, rhs, 1e-12);
  RVec out(n);
  for (std::size_t j = 0; j < n; ++j) out[j] = c[j].real();
  return out;
}

/// The production dictionary's columns come from the dispatched
/// dsp::sinc_column, so the reference takes its taps from the same kernel:
/// the solve is then pinned bit for bit on every backend, not just scalar.
inline CMatrix sinc_dictionary(std::size_t num_taps, double ts,
                               double bandwidth_hz, const RVec& delays_s) {
  CMatrix s(num_taps, delays_s.size());
  RVec pulse(num_taps);
  for (std::size_t col = 0; col < delays_s.size(); ++col) {
    dsp::sinc_column(ts, bandwidth_hz, delays_s[col], num_taps, pulse.data());
    for (std::size_t n = 0; n < num_taps; ++n) {
      s(n, col) = cplx{pulse[n], 0.0};
    }
  }
  return s;
}

inline double fit_residual(const CVec& cir, const CMatrix& s,
                           const CVec& alpha) {
  const CVec model = s * alpha;
  double acc = 0.0;
  for (std::size_t n = 0; n < cir.size(); ++n) {
    acc += std::norm(cir[n] - model[n]);
  }
  return std::sqrt(acc);
}

struct Solve {
  CVec alpha;
  double residual;
};

inline Solve solve_for_delays(const CVec& cir, double ts, double bandwidth_hz,
                              const RVec& delays, double lambda) {
  const CMatrix s = sinc_dictionary(cir.size(), ts, bandwidth_hz, delays);
  CVec alpha = ridge_least_squares(s, cir, lambda);
  const double residual = fit_residual(cir, s, alpha);
  return {std::move(alpha), residual};
}

/// The complete reference fit: same contract as core::superres_per_beam.
inline core::SuperresResult superres_per_beam(
    const CVec& cir, const RVec& nominal_delays_s, double ts,
    double bandwidth_hz, const core::SuperresConfig& config = {}) {
  MMR_EXPECTS(!cir.empty());
  MMR_EXPECTS(!nominal_delays_s.empty());
  MMR_EXPECTS(cir.size() >= nominal_delays_s.size());
  MMR_EXPECTS(config.lambda > 0.0);
  MMR_EXPECTS(config.common_shift_steps >= 1);
  MMR_EXPECTS(config.relative_steps >= 1);

  CVec sanitized;
  const CVec* taps = &cir;
  for (std::size_t n = 0; n < cir.size(); ++n) {
    if (std::isfinite(cir[n].real()) && std::isfinite(cir[n].imag())) continue;
    if (sanitized.empty()) sanitized = cir;
    sanitized[n] = cplx{};
    taps = &sanitized;
  }
  const CVec& h = *taps;

  auto grid_offset = [](std::size_t idx, std::size_t steps, double span) {
    if (steps == 1) return 0.0;
    return (static_cast<double>(idx) / static_cast<double>(steps - 1) - 0.5) *
           2.0 * span;
  };

  RVec delays = nominal_delays_s;
  Solve best = solve_for_delays(h, ts, bandwidth_hz, delays, config.lambda);
  double best_shift = 0.0;
  auto try_shift = [&](double shift) {
    RVec trial(nominal_delays_s.size());
    for (std::size_t k = 0; k < trial.size(); ++k) {
      trial[k] = nominal_delays_s[k] + shift;
    }
    Solve attempt = solve_for_delays(h, ts, bandwidth_hz, trial, config.lambda);
    if (attempt.residual < best.residual) {
      best = std::move(attempt);
      delays = std::move(trial);
      best_shift = shift;
    }
  };
  if (config.common_shift_steps > 1 && config.common_shift_span_s > 0.0) {
    for (std::size_t si = 0; si < config.common_shift_steps; ++si) {
      const double shift = grid_offset(si, config.common_shift_steps,
                                       config.common_shift_span_s);
      if (shift != 0.0) try_shift(shift);
    }
    if (config.common_shift_fine_steps > 1) {
      const double coarse_step =
          2.0 * config.common_shift_span_s /
          static_cast<double>(config.common_shift_steps - 1);
      const double center = best_shift;
      for (std::size_t si = 0; si < config.common_shift_fine_steps; ++si) {
        const double shift =
            center +
            grid_offset(si, config.common_shift_fine_steps, coarse_step / 2.0);
        if (shift != center) try_shift(shift);
      }
    }
  }

  if (config.relative_steps > 1 && config.relative_span_s > 0.0) {
    for (std::size_t round = 0; round < config.refinement_rounds; ++round) {
      for (std::size_t k = 0; k < delays.size(); ++k) {
        const double center = delays[k];
        for (std::size_t si = 0; si < config.relative_steps; ++si) {
          const double off =
              grid_offset(si, config.relative_steps, config.relative_span_s);
          if (off == 0.0) continue;
          RVec trial = delays;
          trial[k] = center + off;
          Solve attempt =
              solve_for_delays(h, ts, bandwidth_hz, trial, config.lambda);
          if (attempt.residual < best.residual) {
            best = std::move(attempt);
            delays = std::move(trial);
          }
        }
      }
    }
  }

  core::SuperresResult result;
  result.alphas = std::move(best.alpha);
  result.delays_s = std::move(delays);
  result.residual = best.residual;
  for (cplx& a : result.alphas) {
    if (!std::isfinite(a.real()) || !std::isfinite(a.imag())) a = cplx{};
  }
  if (!std::isfinite(result.residual)) result.residual = 0.0;
  return result;
}

/// Reference reconstruct_cir: the dictionary times the fitted amplitudes.
inline CVec reconstruct_cir(const core::SuperresResult& fit,
                            std::size_t num_taps, double ts,
                            double bandwidth_hz) {
  return sinc_dictionary(num_taps, ts, bandwidth_hz, fit.delays_s) *
         fit.alphas;
}

}  // namespace mmr::testing::reference
