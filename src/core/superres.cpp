#include "core/superres.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "dsp/linalg.h"
#include "dsp/sinc.h"

namespace mmr::core {
namespace {

/// Model tap n, sum_k S[n][k] alpha_k, summed over beams in index order
/// (columns stored one after the other, `taps` samples each).
cplx model_tap(const double* cols, std::size_t taps, std::size_t beams,
               const cplx* alpha, std::size_t n) {
  cplx acc{};
  for (std::size_t k = 0; k < beams; ++k) acc += cols[k * taps + n] * alpha[k];
  return acc;
}

// The ridge fits of the delay search. A candidate is one delay set with
// its real dictionary columns, the unregularized Gram matrix S^T S (lower
// triangle), S^T h and the fit they give. The search keeps the best
// candidate and fits each trial into a second slot, swapped in when it
// wins; moving one delay recomputes only that column, its Gram row and
// its right-hand-side entry. Sums run over taps in index order from +0.0
// and lambda is added after the Gram sum, so every fit is bit-identical
// to solving (S^H S + lambda I) alpha = S^H h over the complex dictionary
// with zero imaginary parts. No solve allocates.
class DelaySearch {
 public:
  DelaySearch(const CVec& h, std::size_t beams, double ts,
              double bandwidth_hz, double lambda)
      : h_(h),
        taps_(h.size()),
        beams_(beams),
        ts_(ts),
        bandwidth_hz_(bandwidth_hz),
        lambda_(lambda),
        reals_(2 * beams * (1 + taps_ + beams) + beams * beams),
        cplxs_(4 * beams) {
    double* r = reals_.data();
    cplx* c = cplxs_.data();
    for (Candidate* cand : {&best_, &trial_}) {
      cand->delays = r;
      cand->cols = r + beams;
      cand->gram = r + beams * (1 + taps_);
      r += beams * (1 + taps_ + beams);
      cand->rhs = c;
      cand->alpha = c + beams;
      c += 2 * beams;
    }
    factor_ = r;
  }

  /// Fit the delay set delays[k] = delay_of(k), every column recomputed.
  template <typename DelayOf>
  double try_all(DelayOf delay_of) {
    for (std::size_t k = 0; k < beams_; ++k) {
      trial_.delays[k] = delay_of(k);
      // Dictionary column (Eq. 22): the sampled sinc pulse at the delay.
      dsp::sinc_column(ts_, bandwidth_hz_, trial_.delays[k], taps_,
                       column(trial_, k));
    }
    for (std::size_t i = 0; i < beams_; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        trial_.gram[i * beams_ + j] =
            dsp::dot(column(trial_, i), column(trial_, j), taps_);
      }
      trial_.rhs[i] = dsp::dot(column(trial_, i), h_.data(), taps_);
    }
    return solve_trial();
  }

  /// Fit the best candidate with beam k's delay moved to `delay_s`.
  double try_move(std::size_t k, double delay_s) {
    std::copy_n(best_.delays, beams_, trial_.delays);
    std::copy_n(best_.cols, beams_ * taps_, trial_.cols);
    std::copy_n(best_.gram, beams_ * beams_, trial_.gram);
    std::copy_n(best_.rhs, beams_, trial_.rhs);
    trial_.delays[k] = delay_s;
    dsp::sinc_column(ts_, bandwidth_hz_, delay_s, taps_, column(trial_, k));
    for (std::size_t j = 0; j < beams_; ++j) {
      const std::size_t row = std::max(j, k);
      const std::size_t col = std::min(j, k);
      trial_.gram[row * beams_ + col] =
          dsp::dot(column(trial_, k), column(trial_, j), taps_);
    }
    trial_.rhs[k] = dsp::dot(column(trial_, k), h_.data(), taps_);
    return solve_trial();
  }

  void accept() { std::swap(best_, trial_); }

  double best_residual() const { return best_.residual; }
  double best_delay(std::size_t k) const { return best_.delays[k]; }

  void export_best(SuperresResult& out) const {
    out.alphas.assign(best_.alpha, best_.alpha + beams_);
    out.delays_s.assign(best_.delays, best_.delays + beams_);
    out.residual = best_.residual;
  }

 private:
  struct Candidate {
    double* delays = nullptr;
    double* cols = nullptr;
    double* gram = nullptr;
    cplx* rhs = nullptr;
    cplx* alpha = nullptr;
    double residual = 0.0;
  };

  double* column(const Candidate& c, std::size_t k) const {
    return c.cols + k * taps_;
  }

  double solve_trial() {
    std::copy_n(trial_.rhs, beams_, trial_.alpha);
    dsp::ridge_solve(trial_.gram, beams_, lambda_, factor_, trial_.alpha);
    double acc = 0.0;
    for (std::size_t n = 0; n < taps_; ++n) {
      acc += std::norm(h_[n] -
                       model_tap(trial_.cols, taps_, beams_, trial_.alpha, n));
    }
    trial_.residual = std::sqrt(acc);
    return trial_.residual;
  }

  const CVec& h_;
  std::size_t taps_;
  std::size_t beams_;
  double ts_;
  double bandwidth_hz_;
  double lambda_;
  RVec reals_;
  CVec cplxs_;
  Candidate best_;
  Candidate trial_;
  double* factor_ = nullptr;
};

}  // namespace

RVec SuperresResult::powers() const {
  RVec p(alphas.size());
  for (std::size_t k = 0; k < alphas.size(); ++k) p[k] = std::norm(alphas[k]);
  return p;
}

SuperresResult superres_per_beam(const CVec& cir, const RVec& nominal_delays_s,
                                 double ts, double bandwidth_hz,
                                 const SuperresConfig& config) {
  MMR_EXPECTS(!cir.empty());
  MMR_EXPECTS(!nominal_delays_s.empty());
  MMR_EXPECTS(cir.size() >= nominal_delays_s.size());
  MMR_EXPECTS(config.lambda > 0.0);
  MMR_EXPECTS(config.common_shift_steps >= 1);
  MMR_EXPECTS(config.relative_steps >= 1);

  // Corrupted feedback words (NaN/Inf taps) would poison the normal
  // equations and surface as non-finite per-beam amplitudes; zero them so
  // the fit runs on the surviving taps. A clean CIR takes the fast path
  // untouched.
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

  // Stage 1: common shift, relative structure fixed. Coarse grid over the
  // full span, then a fine grid around the best coarse shift.
  DelaySearch search(h, nominal_delays_s.size(), ts, bandwidth_hz,
                     config.lambda);
  search.try_all([&](std::size_t k) { return nominal_delays_s[k]; });
  search.accept();
  double best_shift = 0.0;
  auto try_shift = [&](double shift) {
    const double residual = search.try_all(
        [&](std::size_t k) { return nominal_delays_s[k] + shift; });
    if (residual < search.best_residual()) {
      search.accept();
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

  // Stage 2: small per-path refinement (relative-ToF drift).
  if (config.relative_steps > 1 && config.relative_span_s > 0.0) {
    for (std::size_t round = 0; round < config.refinement_rounds; ++round) {
      for (std::size_t k = 0; k < nominal_delays_s.size(); ++k) {
        const double center = search.best_delay(k);
        for (std::size_t si = 0; si < config.relative_steps; ++si) {
          const double off =
              grid_offset(si, config.relative_steps, config.relative_span_s);
          if (off == 0.0) continue;
          if (search.try_move(k, center + off) < search.best_residual()) {
            search.accept();
          }
        }
      }
    }
  }

  SuperresResult result;
  search.export_best(result);
  // Last line of defense: a degenerate dictionary can still leak NaN out
  // of the solver; a non-finite "amplitude" is a claim of no energy, not
  // infinite energy, so clamp to zero rather than letting callers track
  // garbage powers.
  for (cplx& a : result.alphas) {
    if (!std::isfinite(a.real()) || !std::isfinite(a.imag())) a = cplx{};
  }
  if (!std::isfinite(result.residual)) result.residual = 0.0;
  return result;
}

CVec reconstruct_cir(const SuperresResult& fit, std::size_t num_taps,
                     double ts, double bandwidth_hz) {
  MMR_EXPECTS(fit.alphas.size() == fit.delays_s.size());
  const std::size_t beams = fit.delays_s.size();
  RVec cols(beams * num_taps);
  for (std::size_t k = 0; k < beams; ++k) {
    dsp::sinc_column(ts, bandwidth_hz, fit.delays_s[k], num_taps,
                     cols.data() + k * num_taps);
  }
  CVec model(num_taps);
  for (std::size_t n = 0; n < num_taps; ++n) {
    model[n] = model_tap(cols.data(), num_taps, beams, fit.alphas.data(), n);
  }
  return model;
}

double estimate_peak_delay(const CVec& cir, double ts) {
  MMR_EXPECTS(!cir.empty());
  MMR_EXPECTS(ts > 0.0);
  // Zero corrupted taps up front: they must neither win the coarse peak
  // search nor leak into the band-limited interpolation below (a single
  // Inf tap would otherwise make every interpolated magnitude Inf).
  CVec sanitized;
  const CVec* taps = &cir;
  for (std::size_t n = 0; n < cir.size(); ++n) {
    if (std::isfinite(cir[n].real()) && std::isfinite(cir[n].imag())) continue;
    if (sanitized.empty()) sanitized = cir;
    sanitized[n] = cplx{};
    taps = &sanitized;
  }
  const CVec& h = *taps;
  std::size_t peak = 0;
  double best = 0.0;
  for (std::size_t n = 0; n < h.size(); ++n) {
    const double mag = std::abs(h[n]);
    if (mag > best) {
      best = mag;
      peak = n;
    }
  }
  // Sub-tap refinement by maximizing the band-limited interpolation of
  // the CIR around the peak tap (a parabola over |taps| is biased because
  // the sinc's side lobes are not parabolic).
  const double bandwidth = 1.0 / ts;
  double best_tau = static_cast<double>(peak) * ts;
  double best_mag = best;
  const double lo = (static_cast<double>(peak) - 0.6) * ts;
  const double hi = (static_cast<double>(peak) + 0.6) * ts;
  for (int i = 0; i <= 48; ++i) {
    const double tau = lo + (hi - lo) * static_cast<double>(i) / 48.0;
    if (tau < 0.0) continue;
    const double mag = std::abs(dsp::sinc_interpolate(h, ts, bandwidth, tau));
    if (mag > best_mag) {
      best_mag = mag;
      best_tau = tau;
    }
  }
  return best_tau;
}

}  // namespace mmr::core
