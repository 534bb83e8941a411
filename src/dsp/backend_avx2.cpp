// AVX2+FMA backend (x86-64). Every function carrying intrinsics is
// annotated __attribute__((target("avx2,fma"))), so this TU compiles in
// ANY x86-64 build -- including -DMMR_NATIVE=OFF baseline-ISA builds --
// and the dispatcher only ever calls these entry points after CPUID
// reports avx2+fma (see backend.cpp). Do not add -mavx2 to this TU's
// flags: that would let the compiler leak AVX2 into code reachable
// before the CPUID check.
//
// Data layout: std::complex<double> is an [re, im] pair, so one __m256d
// holds two complexes [re0 im0 re1 im1]. Complex multiply p*q is the
// classic addsub idiom:
//   fmaddsub(p, dup_even(q), swap_pairs(p) * dup_odd(q))
//     even lane: pr*qr - pi*qi, odd lane: pi*qr + pr*qi.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "common/angles.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/backend_kernels.h"

#define MMR_AVX2 __attribute__((target("avx2,fma")))

namespace mmr::dsp::detail {

namespace {

constexpr std::size_t kB = kRampBlock;

MMR_AVX2 inline __m256d cmul2(__m256d p, __m256d q) {
  const __m256d qre = _mm256_movedup_pd(q);
  const __m256d qim = _mm256_permute_pd(q, 0xF);
  const __m256d pswap = _mm256_permute_pd(p, 0x5);
  return _mm256_fmaddsub_pd(p, qre, _mm256_mul_pd(pswap, qim));
}

// p * (cr + j ci) with the scalar already broadcast.
MMR_AVX2 inline __m256d cmul_const(__m256d p, __m256d cr, __m256d ci) {
  const __m256d pswap = _mm256_permute_pd(p, 0x5);
  return _mm256_fmaddsub_pd(p, cr, _mm256_mul_pd(pswap, ci));
}

MMR_AVX2 inline cplx hsum_cplx(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  alignas(16) double buf[2];
  _mm_store_pd(buf, s);
  return cplx(buf[0], buf[1]);
}

inline void exact_phasor(double step, std::size_t i, double* re, double* im) {
  const double ang = -step * static_cast<double>(i);
  *re = std::cos(ang);
  *im = std::sin(ang);
}

// (a_re + j a_im) *= (rot_re + j rot_im). Used to derive every second
// anchor of the ramp kernels from the previous libm anchor: the sincos
// call is the block loop's bottleneck, and the derived anchor is only one
// rounded complex multiply away from exact, so the per-element error
// stays O(1) ulp regardless of n (each block's anchor is at most one
// multiply from a libm value -- the error does NOT accumulate across
// blocks).
inline void rotate_anchor(double rot_re, double rot_im, double* a_re,
                          double* a_im) {
  const double re = *a_re * rot_re - *a_im * rot_im;
  const double im = *a_re * rot_im + *a_im * rot_re;
  *a_re = re;
  *a_im = im;
}

}  // namespace

MMR_AVX2 cplx avx2_cdot(const cplx* a, const cplx* b, std::size_t n) {
  const double* ap = reinterpret_cast<const double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  // Two-FMA accumulation: acc_p collects [ar*br, ai*bi, ...] and acc_q
  // collects [ar*bi, ai*br, ...]; the horizontal finish combines
  // re = sum(ar*br) - sum(ai*bi), im = sum(ar*bi) + sum(ai*br). That is
  // one shuffle + two FMAs per two complexes, vs three shuffles + mul +
  // fmaddsub + add for the addsub idiom -- the loop runs at FMA-port
  // throughput instead of shuffle-port throughput. The difference of two
  // large sums is covered by the absolute arm of the dot tolerance.
  __m256d p0 = _mm256_setzero_pd();
  __m256d p1 = _mm256_setzero_pd();
  __m256d p2 = _mm256_setzero_pd();
  __m256d p3 = _mm256_setzero_pd();
  __m256d q0 = _mm256_setzero_pd();
  __m256d q1 = _mm256_setzero_pd();
  __m256d q2 = _mm256_setzero_pd();
  __m256d q3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a0 = _mm256_loadu_pd(ap + 2 * i);
    const __m256d b0 = _mm256_loadu_pd(bp + 2 * i);
    p0 = _mm256_fmadd_pd(a0, b0, p0);
    q0 = _mm256_fmadd_pd(a0, _mm256_permute_pd(b0, 0x5), q0);
    const __m256d a1 = _mm256_loadu_pd(ap + 2 * i + 4);
    const __m256d b1 = _mm256_loadu_pd(bp + 2 * i + 4);
    p1 = _mm256_fmadd_pd(a1, b1, p1);
    q1 = _mm256_fmadd_pd(a1, _mm256_permute_pd(b1, 0x5), q1);
    const __m256d a2 = _mm256_loadu_pd(ap + 2 * i + 8);
    const __m256d b2 = _mm256_loadu_pd(bp + 2 * i + 8);
    p2 = _mm256_fmadd_pd(a2, b2, p2);
    q2 = _mm256_fmadd_pd(a2, _mm256_permute_pd(b2, 0x5), q2);
    const __m256d a3 = _mm256_loadu_pd(ap + 2 * i + 12);
    const __m256d b3 = _mm256_loadu_pd(bp + 2 * i + 12);
    p3 = _mm256_fmadd_pd(a3, b3, p3);
    q3 = _mm256_fmadd_pd(a3, _mm256_permute_pd(b3, 0x5), q3);
  }
  const __m256d P = _mm256_add_pd(_mm256_add_pd(p0, p1),
                                  _mm256_add_pd(p2, p3));
  const __m256d Q = _mm256_add_pd(_mm256_add_pd(q0, q1),
                                  _mm256_add_pd(q2, q3));
  alignas(32) double pb[4];
  alignas(32) double qb[4];
  _mm256_store_pd(pb, P);
  _mm256_store_pd(qb, Q);
  double re = (pb[0] - pb[1]) + (pb[2] - pb[3]);
  double im = (qb[0] + qb[1]) + (qb[2] + qb[3]);
  for (; i < n; ++i) {
    const double ar = ap[2 * i];
    const double ai = ap[2 * i + 1];
    const double br = bp[2 * i];
    const double bi = bp[2 * i + 1];
    re += ar * br - ai * bi;
    im += ar * bi + ai * br;
  }
  return cplx(re, im);
}

MMR_AVX2 void avx2_axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n) {
  const double* xp = reinterpret_cast<const double*>(x);
  double* yp = reinterpret_cast<double*>(y);
  const __m256d ar = _mm256_set1_pd(alpha.real());
  const __m256d ai = _mm256_set1_pd(alpha.imag());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x0 = _mm256_loadu_pd(xp + 2 * i);
    const __m256d x1 = _mm256_loadu_pd(xp + 2 * i + 4);
    const __m256d y0 = _mm256_loadu_pd(yp + 2 * i);
    const __m256d y1 = _mm256_loadu_pd(yp + 2 * i + 4);
    _mm256_storeu_pd(yp + 2 * i, _mm256_add_pd(y0, cmul_const(x0, ar, ai)));
    _mm256_storeu_pd(yp + 2 * i + 4,
                     _mm256_add_pd(y1, cmul_const(x1, ar, ai)));
  }
  const double sar = alpha.real();
  const double sai = alpha.imag();
  for (; i < n; ++i) {
    const double xr = xp[2 * i];
    const double xi = xp[2 * i + 1];
    yp[2 * i] += sar * xr - sai * xi;
    yp[2 * i + 1] += sar * xi + sai * xr;
  }
}

MMR_AVX2 void avx2_phasor_ramp_soa(double step, std::size_t n, double* dst_re,
                                   double* dst_im) {
  if (n < 2 * kB) {
    scalar_phasor_ramp_soa(step, n, dst_re, dst_im);
    return;
  }
  const RampDeltas d = compute_ramp_deltas(step);
  const __m256d dre0 = _mm256_loadu_pd(d.re);
  const __m256d dre1 = _mm256_loadu_pd(d.re + 4);
  const __m256d dim0 = _mm256_loadu_pd(d.im);
  const __m256d dim1 = _mm256_loadu_pd(d.im + 4);
  double rot_re;
  double rot_im;
  exact_phasor(step, kB, &rot_re, &rot_im);
  const auto emit_block = [&](std::size_t base, double a_re, double a_im)
                              MMR_AVX2 {
    const __m256d are = _mm256_set1_pd(a_re);
    const __m256d aim = _mm256_set1_pd(a_im);
    // out_re = are*dre - aim*dim ; out_im = aim*dre + are*dim
    _mm256_storeu_pd(dst_re + base,
                     _mm256_fmsub_pd(are, dre0, _mm256_mul_pd(aim, dim0)));
    _mm256_storeu_pd(dst_re + base + 4,
                     _mm256_fmsub_pd(are, dre1, _mm256_mul_pd(aim, dim1)));
    _mm256_storeu_pd(dst_im + base,
                     _mm256_fmadd_pd(aim, dre0, _mm256_mul_pd(are, dim0)));
    _mm256_storeu_pd(dst_im + base + 4,
                     _mm256_fmadd_pd(aim, dre1, _mm256_mul_pd(are, dim1)));
  };
  std::size_t i = 0;
  // One libm sincos serves TWO blocks: the second block's anchor is the
  // first rotated by kB steps (see rotate_anchor).
  for (; i + 2 * kB <= n; i += 2 * kB) {
    double a_re;
    double a_im;
    exact_phasor(step, i, &a_re, &a_im);
    emit_block(i, a_re, a_im);
    rotate_anchor(rot_re, rot_im, &a_re, &a_im);
    emit_block(i + kB, a_re, a_im);
  }
  for (; i + kB <= n; i += kB) {
    double a_re;
    double a_im;
    exact_phasor(step, i, &a_re, &a_im);
    emit_block(i, a_re, a_im);
  }
  for (; i < n; ++i) exact_phasor(step, i, &dst_re[i], &dst_im[i]);
}

namespace {

// Deltas as two interleaved vectors [re0 im0 re1 im1] per pair.
struct InterleavedDeltas {
  __m256d v[kB / 2];
};

MMR_AVX2 inline InterleavedDeltas interleave_deltas(const RampDeltas& d) {
  InterleavedDeltas out;
  for (std::size_t k = 0; k < kB / 2; ++k) {
    out.v[k] = _mm256_set_pd(d.im[2 * k + 1], d.re[2 * k + 1], d.im[2 * k],
                             d.re[2 * k]);
  }
  return out;
}

}  // namespace

MMR_AVX2 void avx2_phasor_ramp_interleaved(double step, std::size_t n,
                                           cplx* dst) {
  if (n < 2 * kB) {
    scalar_phasor_ramp_interleaved(step, n, dst);
    return;
  }
  const RampDeltas d = compute_ramp_deltas(step);
  const InterleavedDeltas dv = interleave_deltas(d);
  double rot_re;
  double rot_im;
  exact_phasor(step, kB, &rot_re, &rot_im);
  double* out = reinterpret_cast<double*>(dst);
  const auto emit_block = [&](std::size_t base, double a_re, double a_im)
                              MMR_AVX2 {
    const __m256d are = _mm256_set1_pd(a_re);
    const __m256d aim = _mm256_set1_pd(a_im);
    for (std::size_t k = 0; k < kB / 2; ++k) {
      _mm256_storeu_pd(out + 2 * base + 4 * k, cmul_const(dv.v[k], are, aim));
    }
  };
  std::size_t i = 0;
  for (; i + 2 * kB <= n; i += 2 * kB) {
    double a_re;
    double a_im;
    exact_phasor(step, i, &a_re, &a_im);
    emit_block(i, a_re, a_im);
    rotate_anchor(rot_re, rot_im, &a_re, &a_im);
    emit_block(i + kB, a_re, a_im);
  }
  for (; i + kB <= n; i += kB) {
    double a_re;
    double a_im;
    exact_phasor(step, i, &a_re, &a_im);
    emit_block(i, a_re, a_im);
  }
  for (; i < n; ++i) {
    exact_phasor(step, i, &out[2 * i], &out[2 * i + 1]);
  }
}

MMR_AVX2 cplx avx2_dot_phasor_ramp(double step, const cplx* w, std::size_t n) {
  if (n < 2 * kB) return scalar_dot_phasor_ramp(step, w, n);
  const RampDeltas d = compute_ramp_deltas(step);
  const InterleavedDeltas dv = interleave_deltas(d);
  double rot_re;
  double rot_im;
  exact_phasor(step, kB, &rot_re, &rot_im);
  const double* wp = reinterpret_cast<const double*>(w);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  const auto add_block = [&](std::size_t base, double a_re, double a_im)
                             MMR_AVX2 {
    const __m256d are = _mm256_set1_pd(a_re);
    const __m256d aim = _mm256_set1_pd(a_im);
    acc0 = _mm256_add_pd(
        acc0, cmul2(cmul_const(dv.v[0], are, aim),
                    _mm256_loadu_pd(wp + 2 * base)));
    acc1 = _mm256_add_pd(
        acc1, cmul2(cmul_const(dv.v[1], are, aim),
                    _mm256_loadu_pd(wp + 2 * base + 4)));
    acc2 = _mm256_add_pd(
        acc2, cmul2(cmul_const(dv.v[2], are, aim),
                    _mm256_loadu_pd(wp + 2 * base + 8)));
    acc3 = _mm256_add_pd(
        acc3, cmul2(cmul_const(dv.v[3], are, aim),
                    _mm256_loadu_pd(wp + 2 * base + 12)));
  };
  std::size_t i = 0;
  for (; i + 2 * kB <= n; i += 2 * kB) {
    double a_re;
    double a_im;
    exact_phasor(step, i, &a_re, &a_im);
    add_block(i, a_re, a_im);
    rotate_anchor(rot_re, rot_im, &a_re, &a_im);
    add_block(i + kB, a_re, a_im);
  }
  for (; i + kB <= n; i += kB) {
    double a_re;
    double a_im;
    exact_phasor(step, i, &a_re, &a_im);
    add_block(i, a_re, a_im);
  }
  const __m256d sum = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                    _mm256_add_pd(acc2, acc3));
  cplx acc = hsum_cplx(sum);
  double re = acc.real();
  double im = acc.imag();
  for (; i < n; ++i) {
    double pre;
    double pim;
    exact_phasor(step, i, &pre, &pim);
    const double wr = wp[2 * i];
    const double wi = wp[2 * i + 1];
    re += pre * wr - pim * wi;
    im += pre * wi + pim * wr;
  }
  return cplx(re, im);
}

MMR_AVX2 void avx2_axpy_phasor_ramp(cplx alpha, double step, cplx* y,
                                    std::size_t n) {
  if (n < 2 * kB) {
    scalar_axpy_phasor_ramp(alpha, step, y, n);
    return;
  }
  const RampDeltas d = compute_ramp_deltas(step);
  const InterleavedDeltas dv = interleave_deltas(d);
  double rot_re;
  double rot_im;
  exact_phasor(step, kB, &rot_re, &rot_im);
  const __m256d alr = _mm256_set1_pd(alpha.real());
  const __m256d ali = _mm256_set1_pd(alpha.imag());
  double* yp = reinterpret_cast<double*>(y);
  const auto add_block = [&](std::size_t base, double a_re, double a_im)
                             MMR_AVX2 {
    const __m256d are = _mm256_set1_pd(a_re);
    const __m256d aim = _mm256_set1_pd(a_im);
    for (std::size_t k = 0; k < kB / 2; ++k) {
      const __m256d ph = cmul_const(dv.v[k], are, aim);
      const __m256d yv = _mm256_loadu_pd(yp + 2 * base + 4 * k);
      _mm256_storeu_pd(yp + 2 * base + 4 * k,
                       _mm256_add_pd(yv, cmul_const(ph, alr, ali)));
    }
  };
  std::size_t i = 0;
  for (; i + 2 * kB <= n; i += 2 * kB) {
    double a_re;
    double a_im;
    exact_phasor(step, i, &a_re, &a_im);
    add_block(i, a_re, a_im);
    rotate_anchor(rot_re, rot_im, &a_re, &a_im);
    add_block(i + kB, a_re, a_im);
  }
  for (; i + kB <= n; i += kB) {
    double a_re;
    double a_im;
    exact_phasor(step, i, &a_re, &a_im);
    add_block(i, a_re, a_im);
  }
  const double sar = alpha.real();
  const double sai = alpha.imag();
  for (; i < n; ++i) {
    double pre;
    double pim;
    exact_phasor(step, i, &pre, &pim);
    yp[2 * i] += sar * pre - sai * pim;
    yp[2 * i + 1] += sar * pim + sai * pre;
  }
}

MMR_AVX2 void avx2_delay_phasors(const FreqGrid& grid, double delay_s,
                                 cplx* ph) {
  if (!delay_ramp_applies(grid)) {
    scalar_delay_phasors(grid, delay_s, ph);
    return;
  }
  const double* freqs = grid.freqs;
  const std::size_t n = grid.n;
  RampDeltas d;
  for (std::size_t k = 0; k < kB; ++k) {
    const double ang =
        -2.0 * kPi * (grid.df * static_cast<double>(k)) * delay_s;
    d.re[k] = std::cos(ang);
    d.im[k] = std::sin(ang);
  }
  const InterleavedDeltas dv = interleave_deltas(d);
  // Block-to-block rotation for the affine grid (kB*df per block); one
  // complex multiply derives every second anchor (see rotate_anchor).
  const double rot_ang =
      -2.0 * kPi * (grid.df * static_cast<double>(kB)) * delay_s;
  const double rot_re = std::cos(rot_ang);
  const double rot_im = std::sin(rot_ang);
  double* pp = reinterpret_cast<double*>(ph);
  const auto ramp_block = [&](std::size_t base, double a_re, double a_im)
                              MMR_AVX2 {
    const __m256d are = _mm256_set1_pd(a_re);
    const __m256d aim = _mm256_set1_pd(a_im);
    for (std::size_t k = 0; k < kB / 2; ++k) {
      _mm256_storeu_pd(pp + 2 * base + 4 * k, cmul_const(dv.v[k], are, aim));
    }
  };
  std::size_t i = 0;
  for (; i + 2 * kB <= n; i += 2 * kB) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    double a_re = std::cos(ang);
    double a_im = std::sin(ang);
    ramp_block(i, a_re, a_im);
    rotate_anchor(rot_re, rot_im, &a_re, &a_im);
    ramp_block(i + kB, a_re, a_im);
  }
  for (; i + kB <= n; i += kB) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    ramp_block(i, std::cos(ang), std::sin(ang));
  }
  for (; i < n; ++i) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    pp[2 * i] = std::cos(ang);
    pp[2 * i + 1] = std::sin(ang);
  }
}

// dst += alpha * ph with the operations of a fused ramp-and-accumulate on
// this backend: the vector complex multiply-add over the whole kB blocks
// avx2_delay_phasors ramped, the scalar formula on the tail past them.
MMR_AVX2 void avx2_axpy_delay_phasors(const FreqGrid& grid, cplx alpha,
                                      const cplx* ph, cplx* dst) {
  if (!delay_ramp_applies(grid)) {
    scalar_axpy(alpha, ph, dst, grid.n);
    return;
  }
  const std::size_t n = grid.n;
  const __m256d alr = _mm256_set1_pd(alpha.real());
  const __m256d ali = _mm256_set1_pd(alpha.imag());
  const double* pp = reinterpret_cast<const double*>(ph);
  double* dp = reinterpret_cast<double*>(dst);
  std::size_t i = 0;
  for (; i + kB <= n; i += kB) {
    for (std::size_t k = 0; k < kB / 2; ++k) {
      const __m256d pv = _mm256_loadu_pd(pp + 2 * i + 4 * k);
      const __m256d yv = _mm256_loadu_pd(dp + 2 * i + 4 * k);
      _mm256_storeu_pd(dp + 2 * i + 4 * k,
                       _mm256_add_pd(yv, cmul_const(pv, alr, ali)));
    }
  }
  const double sar = alpha.real();
  const double sai = alpha.imag();
  for (; i < n; ++i) {
    const double pre = pp[2 * i];
    const double pim = pp[2 * i + 1];
    dp[2 * i] += sar * pre - sai * pim;
    dp[2 * i + 1] += sar * pim + sai * pre;
  }
}

const KernelTable* avx2_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.phasor_ramp_soa = &avx2_phasor_ramp_soa;
    t.phasor_ramp_interleaved = &avx2_phasor_ramp_interleaved;
    t.cdot = &avx2_cdot;
    t.dot_phasor_ramp = &avx2_dot_phasor_ramp;
    t.axpy = &avx2_axpy;
    t.axpy_phasor_ramp = &avx2_axpy_phasor_ramp;
    t.delay_phasors = &avx2_delay_phasors;
    t.axpy_delay_phasors = &avx2_axpy_delay_phasors;
    t.box_muller = &avx2_box_muller;
    t.impair_csi = &avx2_impair_csi;
    t.sinc_column = &avx2_sinc_column;
    return t;
  }();
  return &table;
}

}  // namespace mmr::dsp::detail

#else  // !x86-64

#include "dsp/backend.h"

namespace mmr::dsp::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace mmr::dsp::detail

#endif
