// AVX2+FMA transcendental kernels (x86-64): box_muller, impair_csi and
// sinc_column. Their scalar cost is one libm log and/or sincos per
// element, so here log, sin and cos are evaluated 4-wide by table-free
// polynomials: the fdlibm algorithms (e_log.c, k_sin.c, k_cos.c) with
// their published coefficients, each within ~1 ulp of the correctly
// rounded value. Every other operation -- the argument formula, sqrt, the
// complex multiply, the division -- is the scalar loop's, in its order.
// This TU is compiled with -ffp-contract=off (src/dsp/CMakeLists.txt) so
// the compiler does not fuse those into FMAs; the only FMAs are the
// explicit ones of the pi/2 reduction. The difference from the reference
// is therefore the polynomial error alone, declared in tolerances().
//
// A group of 4 with any lane outside the fast range -- NaN, Inf, a log
// argument that is not a positive normal, a trig argument beyond
// kMaxTrigArg -- and, for impair_csi, any non-finite output is recomputed
// by the scalar code, so special values and huge arguments come out
// exactly as the reference gives them.
//
// Like backend_avx2.cpp, every function carries the avx2,fma target
// attribute and runs only after the CPUID check in backend.cpp.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstddef>

#include "common/angles.h"
#include "common/types.h"
#include "dsp/backend_kernels.h"
#include "dsp/sinc.h"

#define MMR_AVX2 __attribute__((target("avx2,fma")))

namespace mmr::dsp::detail {

namespace {

// Largest |x| the 3-part Cody-Waite reduction below serves: x = j pi/2 + r
// with |j| < 2^16, where the fused multiply-subtracts keep r accurate to
// ~1 ulp.
constexpr double kMaxTrigArg = 1.0e5;
constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
constexpr double kPio2Hi = 0x1.921fb54442d18p+0;   // pi/2 = hi + mid + lo
constexpr double kPio2Mid = 0x1.1a62633145c07p-54;
constexpr double kPio2Lo = -0x1.f1976b7ed8fbcp-110;
// Adding 1.5 * 2^52 rounds to an integer held in the low mantissa bits.
constexpr double kRoundMagic = 0x1.8p52;

MMR_AVX2 inline __m256d abs4(__m256d x) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

// All four lanes satisfy `ok` (an all-ones/all-zeros comparison mask).
MMR_AVX2 inline bool all_lanes(__m256d ok) {
  return _mm256_movemask_pd(ok) == 0xF;
}

MMR_AVX2 inline __m256d trig_arg_ok(__m256d x) {
  return _mm256_cmp_pd(abs4(x), _mm256_set1_pd(kMaxTrigArg), _CMP_LE_OQ);
}

// sin(x), cos(x) for |x| <= kMaxTrigArg: reduce by the nearest multiple j
// of pi/2, evaluate the fdlibm kernels on r in ~[-pi/4, pi/4], then swap
// and negate by the quadrant j mod 4.
MMR_AVX2 inline void sincos4(__m256d x, __m256d* sin_out, __m256d* cos_out) {
  const __m256d magic = _mm256_set1_pd(kRoundMagic);
  const __m256d jm =
      _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(kTwoOverPi)), magic);
  const __m256d j = _mm256_sub_pd(jm, magic);
  __m256d r = _mm256_fnmadd_pd(j, _mm256_set1_pd(kPio2Hi), x);
  r = _mm256_fnmadd_pd(j, _mm256_set1_pd(kPio2Mid), r);
  r = _mm256_fnmadd_pd(j, _mm256_set1_pd(kPio2Lo), r);

  const __m256d z = _mm256_mul_pd(r, r);
  // k_sin.c: r + r^3 (S1 + z (S2 + ... + z S6)).
  __m256d ps = _mm256_set1_pd(1.58969099521155010221e-10);
  ps = _mm256_add_pd(_mm256_mul_pd(z, ps),
                     _mm256_set1_pd(-2.50507602534068634195e-08));
  ps = _mm256_add_pd(_mm256_mul_pd(z, ps),
                     _mm256_set1_pd(2.75573137070700676789e-06));
  ps = _mm256_add_pd(_mm256_mul_pd(z, ps),
                     _mm256_set1_pd(-1.98412698298579493134e-04));
  ps = _mm256_add_pd(_mm256_mul_pd(z, ps),
                     _mm256_set1_pd(8.33333333332248946124e-03));
  ps = _mm256_add_pd(_mm256_mul_pd(z, ps),
                     _mm256_set1_pd(-1.66666666666666324348e-01));
  const __m256d sin_r =
      _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(z, r), ps));
  // k_cos.c: w + (((1 - w) - z/2) + z^2 (C1 + z (C2 + ... + z C6))),
  // w = 1 - z/2.
  __m256d pc = _mm256_set1_pd(-1.13596475577881948265e-11);
  pc = _mm256_add_pd(_mm256_mul_pd(z, pc),
                     _mm256_set1_pd(2.08757232129817482790e-09));
  pc = _mm256_add_pd(_mm256_mul_pd(z, pc),
                     _mm256_set1_pd(-2.75573143513906633035e-07));
  pc = _mm256_add_pd(_mm256_mul_pd(z, pc),
                     _mm256_set1_pd(2.48015872894767294178e-05));
  pc = _mm256_add_pd(_mm256_mul_pd(z, pc),
                     _mm256_set1_pd(-1.38888888888741095749e-03));
  pc = _mm256_add_pd(_mm256_mul_pd(z, pc),
                     _mm256_set1_pd(4.16666666666666019037e-02));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d hz = _mm256_mul_pd(_mm256_set1_pd(0.5), z);
  const __m256d w = _mm256_sub_pd(one, hz);
  const __m256d zr = _mm256_mul_pd(z, _mm256_mul_pd(z, pc));
  const __m256d cos_r = _mm256_add_pd(
      w, _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(one, w), hz), zr));

  // Quadrant q = j mod 4 sits in the low bits of jm. Odd q swaps sin and
  // cos; sin is negated for q in {2, 3}, cos for q in {1, 2}.
  const __m256i q = _mm256_castpd_si256(jm);
  const __m256i one_i = _mm256_set1_epi64x(1);
  const __m256i two_i = _mm256_set1_epi64x(2);
  const __m256d swap = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(q, one_i), one_i));
  const __m256d sin_sign = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_and_si256(q, two_i), 62));
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(q, one_i), two_i), 62));
  *sin_out = _mm256_xor_pd(_mm256_blendv_pd(sin_r, cos_r, swap), sin_sign);
  *cos_out = _mm256_xor_pd(_mm256_blendv_pd(cos_r, sin_r, swap), cos_sign);
}

// ln(x) for positive normal finite x (e_log.c): x = 2^k m with m in
// [sqrt(2)/2, sqrt(2)), f = m - 1, s = f / (2 + f),
// ln x = k ln2_hi - ((f^2/2 - (s (f^2/2 + R(s^2)) + k ln2_lo)) - f).
MMR_AVX2 inline __m256d log4(__m256d x) {
  // k + 1023 = (bits(x) - bits(sqrt(2)/2) + bits(1.0)) >> 52 and
  // m = bits(x) - (k << 52), both in 64-bit integer lanes.
  const __m256i ix = _mm256_castpd_si256(x);
  const __m256i biased_k = _mm256_srli_epi64(
      _mm256_add_epi64(
          _mm256_sub_epi64(ix, _mm256_set1_epi64x(0x3fe6a09e667f3bcdLL)),
          _mm256_set1_epi64x(0x3ff0000000000000LL)),
      52);
  const __m256i k_shifted = _mm256_slli_epi64(
      _mm256_sub_epi64(biased_k, _mm256_set1_epi64x(1023)), 52);
  const __m256d m = _mm256_castsi256_pd(_mm256_sub_epi64(ix, k_shifted));
  // (double) k: or the small integer into the mantissa of 2^52, subtract.
  const __m256d k = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          biased_k, _mm256_set1_epi64x(0x4330000000000000LL))),
      _mm256_set1_pd(0x1.0p52 + 1023.0));

  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d f = _mm256_sub_pd(m, one);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  __m256d t1 = _mm256_set1_pd(1.531383769920937332e-01);  // Lg6
  t1 = _mm256_add_pd(_mm256_mul_pd(w, t1),
                     _mm256_set1_pd(2.222219843214978396e-01));  // Lg4
  t1 = _mm256_add_pd(_mm256_mul_pd(w, t1),
                     _mm256_set1_pd(3.999999999940941908e-01));  // Lg2
  t1 = _mm256_mul_pd(w, t1);
  __m256d t2 = _mm256_set1_pd(1.479819860511658591e-01);  // Lg7
  t2 = _mm256_add_pd(_mm256_mul_pd(w, t2),
                     _mm256_set1_pd(1.818357216161805012e-01));  // Lg5
  t2 = _mm256_add_pd(_mm256_mul_pd(w, t2),
                     _mm256_set1_pd(2.857142874366239149e-01));  // Lg3
  t2 = _mm256_add_pd(_mm256_mul_pd(w, t2),
                     _mm256_set1_pd(6.666666666666735130e-01));  // Lg1
  t2 = _mm256_mul_pd(z, t2);
  const __m256d big_r = _mm256_add_pd(t2, t1);
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
  const __m256d ln2_hi = _mm256_set1_pd(6.93147180369123816490e-01);
  const __m256d ln2_lo = _mm256_set1_pd(1.90821492927058770002e-10);
  const __m256d inner = _mm256_add_pd(
      _mm256_mul_pd(s, _mm256_add_pd(hfsq, big_r)), _mm256_mul_pd(k, ln2_lo));
  return _mm256_sub_pd(_mm256_mul_pd(k, ln2_hi),
                       _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
}

// [c0 .. c3], [s0 .. s3] -> interleaved complexes [c0 s0 c1 s1],
// [c2 s2 c3 s3].
MMR_AVX2 inline void interleave4(__m256d re, __m256d im, __m256d* lo,
                                 __m256d* hi) {
  const __m256d a = _mm256_unpacklo_pd(re, im);  // c0 s0 c2 s2
  const __m256d b = _mm256_unpackhi_pd(re, im);  // c1 s1 c3 s3
  *lo = _mm256_permute2f128_pd(a, b, 0x20);
  *hi = _mm256_permute2f128_pd(a, b, 0x31);
}

// p * q for two interleaved complexes, as the scalar operator* rounds it:
// (pr qr - pi qi, pr qi + pi qr), every product rounded, no FMA.
MMR_AVX2 inline __m256d cmul2_exact(__m256d p, __m256d q) {
  const __m256d qre = _mm256_movedup_pd(q);
  const __m256d qim = _mm256_permute_pd(q, 0xF);
  const __m256d pswap = _mm256_permute_pd(p, 0x5);
  return _mm256_addsub_pd(_mm256_mul_pd(p, qre), _mm256_mul_pd(pswap, qim));
}

MMR_AVX2 inline __m256d lane_index4(std::size_t i) {
  const double base = static_cast<double>(i);
  return _mm256_add_pd(_mm256_set1_pd(base),
                       _mm256_setr_pd(0.0, 1.0, 2.0, 3.0));
}

}  // namespace

MMR_AVX2 void avx2_box_muller(const double* uniforms, std::size_t pairs,
                              double* normals) {
  const __m256d nudge = _mm256_set1_pd(0x1.0p-53);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d min_normal = _mm256_set1_pd(0x1.0p-1022);
  const __m256d max_finite = _mm256_set1_pd(0x1.fffffffffffffp+1023);
  const __m256d two_pi = _mm256_set1_pd(2.0 * kPi);
  std::size_t i = 0;
  for (; i + 4 <= pairs; i += 4) {
    const __m256d a = _mm256_loadu_pd(uniforms + 2 * i);
    const __m256d b = _mm256_loadu_pd(uniforms + 2 * i + 4);
    // Lanes hold pairs 0, 2, 1, 3; unpacking the results the same way
    // restores the order.
    __m256d u1 = _mm256_unpacklo_pd(a, b);
    const __m256d u2 = _mm256_unpackhi_pd(a, b);
    u1 = _mm256_blendv_pd(u1, nudge, _mm256_cmp_pd(u1, zero, _CMP_LE_OQ));
    const __m256d ang = _mm256_mul_pd(two_pi, u2);
    const __m256d ok = _mm256_and_pd(
        _mm256_and_pd(_mm256_cmp_pd(u1, min_normal, _CMP_GE_OQ),
                      _mm256_cmp_pd(u1, max_finite, _CMP_LE_OQ)),
        trig_arg_ok(ang));
    if (!all_lanes(ok)) {
      scalar_box_muller(uniforms + 2 * i, 4, normals + 2 * i);
      continue;
    }
    const __m256d r = _mm256_sqrt_pd(
        _mm256_mul_pd(_mm256_set1_pd(-2.0), log4(u1)));
    __m256d s;
    __m256d c;
    sincos4(ang, &s, &c);
    const __m256d zc = _mm256_mul_pd(r, c);
    const __m256d zs = _mm256_mul_pd(r, s);
    _mm256_storeu_pd(normals + 2 * i, _mm256_unpacklo_pd(zc, zs));
    _mm256_storeu_pd(normals + 2 * i + 4, _mm256_unpackhi_pd(zc, zs));
  }
  scalar_box_muller(uniforms + 2 * i, pairs - i, normals + 2 * i);
}

MMR_AVX2 void avx2_impair_csi(const cplx* truth, const cplx* noise,
                              double phase0, double slope, std::size_t n,
                              cplx* out) {
  const double* tp = reinterpret_cast<const double*>(truth);
  const double* np = reinterpret_cast<const double*>(noise);
  double* op = reinterpret_cast<double*>(out);
  const __m256d p0 = _mm256_set1_pd(phase0);
  const __m256d sl = _mm256_set1_pd(slope);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d phase = _mm256_add_pd(p0, _mm256_mul_pd(sl, lane_index4(k)));
    __m256d s;
    __m256d c;
    sincos4(phase, &s, &c);
    __m256d rot_lo;
    __m256d rot_hi;
    interleave4(c, s, &rot_lo, &rot_hi);
    const __m256d y_lo = cmul2_exact(
        _mm256_add_pd(_mm256_loadu_pd(tp + 2 * k), _mm256_loadu_pd(np + 2 * k)),
        rot_lo);
    const __m256d y_hi =
        cmul2_exact(_mm256_add_pd(_mm256_loadu_pd(tp + 2 * k + 4),
                                  _mm256_loadu_pd(np + 2 * k + 4)),
                    rot_hi);
    // x - x is 0 for finite x and NaN otherwise.
    const __m256d finite = _mm256_cmp_pd(
        _mm256_add_pd(_mm256_sub_pd(y_lo, y_lo), _mm256_sub_pd(y_hi, y_hi)),
        _mm256_setzero_pd(), _CMP_EQ_OQ);
    if (!all_lanes(_mm256_and_pd(trig_arg_ok(phase), finite))) {
      for (std::size_t e = k; e < k + 4; ++e) {
        out[e] = scalar_impair_csi_at(truth, noise, phase0, slope, e);
      }
      continue;
    }
    _mm256_storeu_pd(op + 2 * k, y_lo);
    _mm256_storeu_pd(op + 2 * k + 4, y_hi);
  }
  for (; k < n; ++k) {
    out[k] = scalar_impair_csi_at(truth, noise, phase0, slope, k);
  }
}

MMR_AVX2 void avx2_sinc_column(double ts, double bandwidth, double tau,
                               std::size_t n, double* out) {
  const __m256d vts = _mm256_set1_pd(ts);
  const __m256d vbw = _mm256_set1_pd(bandwidth);
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d pi = _mm256_set1_pd(kPi);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_mul_pd(
        vbw, _mm256_sub_pd(_mm256_mul_pd(lane_index4(i), vts), vtau));
    const __m256d px = _mm256_mul_pd(pi, x);
    if (!all_lanes(trig_arg_ok(px))) {
      for (std::size_t e = i; e < i + 4; ++e) {
        out[e] = sampled_sinc_tap(e, ts, bandwidth, tau);
      }
      continue;
    }
    __m256d s;
    __m256d c;
    sincos4(px, &s, &c);
    const __m256d at_zero =
        _mm256_cmp_pd(abs4(x), _mm256_set1_pd(1e-12), _CMP_LT_OQ);
    _mm256_storeu_pd(out + i, _mm256_blendv_pd(_mm256_div_pd(s, px),
                                               _mm256_set1_pd(1.0), at_zero));
  }
  for (; i < n; ++i) out[i] = sampled_sinc_tap(i, ts, bandwidth, tau);
}

}  // namespace mmr::dsp::detail

#endif
