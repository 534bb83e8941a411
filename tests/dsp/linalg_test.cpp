#include "dsp/linalg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "common/rng.h"
#include "tests/common/superres_reference.h"

namespace mmr::dsp {
namespace {

using testing::reference::CMatrix;

// --- The complex reference matrix (tests/common/superres_reference.h) ---
// The differential tests trust it as the oracle, so it is pinned here.

TEST(CMatrix, IdentityAndIndexing) {
  CMatrix eye(3, 3);
  for (std::size_t i = 0; i < 3; ++i) eye(i, i) = cplx{1.0, 0.0};
  EXPECT_EQ(eye(0, 0), (cplx{1.0, 0.0}));
  EXPECT_EQ(eye(0, 1), (cplx{0.0, 0.0}));
}

TEST(CMatrix, OutOfRangeThrows) {
  CMatrix m(2, 2);
  EXPECT_THROW(m(2, 0), std::logic_error);
  EXPECT_THROW(m(0, 2), std::logic_error);
}

TEST(CMatrix, HermitianTranspose) {
  CMatrix m(1, 2);
  m(0, 0) = cplx{1.0, 2.0};
  m(0, 1) = cplx{3.0, -4.0};
  const CMatrix h = m.hermitian();
  EXPECT_EQ(h.rows(), 2u);
  EXPECT_EQ(h.cols(), 1u);
  EXPECT_EQ(h(0, 0), (cplx{1.0, -2.0}));
  EXPECT_EQ(h(1, 0), (cplx{3.0, 4.0}));
}

TEST(CMatrix, MatrixVectorProduct) {
  CMatrix m(2, 2);
  m(0, 0) = cplx{1.0, 0.0};
  m(0, 1) = cplx{0.0, 1.0};
  m(1, 0) = cplx{2.0, 0.0};
  m(1, 1) = cplx{0.0, 0.0};
  const CVec x{{1.0, 0.0}, {1.0, 0.0}};
  const CVec y = m * x;
  EXPECT_NEAR(std::abs(y[0] - cplx(1.0, 1.0)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(y[1] - cplx(2.0, 0.0)), 0.0, 1e-14);
}

TEST(CMatrix, MatrixMatrixIdentity) {
  Rng rng(3);
  CMatrix m(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) m(i, j) = rng.complex_normal();
  CMatrix eye(3, 3);
  for (std::size_t i = 0; i < 3; ++i) eye(i, i) = cplx{1.0, 0.0};
  const CMatrix p = m * eye;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(std::abs(p(i, j) - m(i, j)), 0.0, 1e-14);
}

// --- The production real solver ------------------------------------------

TEST(VecOps, Dot) {
  const double a[] = {3.0, 4.0};
  const double b[] = {1.0, 2.0};
  EXPECT_EQ(dot(a, b, 2), 11.0);
  const cplx c[] = {{1.0, -1.0}, {0.0, 1.0}};
  EXPECT_EQ(dot(a, c, 2), (cplx{3.0, 1.0}));
  EXPECT_EQ(dot(a, b, 0), 0.0);
  EXPECT_FALSE(std::signbit(dot(a, b, 0)));  // sums start from +0.0
}

TEST(Cholesky, SolvesKnownSystem) {
  // A = [[4, 2], [2, 3]] (real SPD), b = [8, 7] -> x = [1.25, 1.5]. Only
  // the lower triangle is read; the upper one holds garbage on purpose.
  double a[] = {4.0, -99.0, 2.0, 3.0};
  double b[] = {8.0, 7.0};
  cholesky_solve(a, b, 2);
  EXPECT_NEAR(b[0], 1.25, 1e-12);
  EXPECT_NEAR(b[1], 1.5, 1e-12);
}

TEST(Cholesky, ComplexHermitianSystem) {
  // A = M^T M + I (real symmetric, so Hermitian and positive definite)
  // with a complex right-hand side; check the A x = b residual.
  Rng rng(7);
  double m[16];
  for (double& v : m) v = rng.normal();
  double a[16];
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < 4; ++k) acc += m[k * 4 + i] * m[k * 4 + j];
      a[i * 4 + j] = acc + (i == j ? 1.0 : 0.0);
    }
  }
  CVec b(4);
  for (auto& c : b) c = rng.complex_normal();
  double l[16];
  std::copy(a, a + 16, l);
  CVec x = b;
  cholesky_solve(l, x.data(), 4);
  for (std::size_t i = 0; i < 4; ++i) {
    cplx ax{};
    for (std::size_t j = 0; j < 4; ++j) ax += a[i * 4 + j] * x[j];
    EXPECT_NEAR(std::abs(ax - b[i]), 0.0, 1e-10);
  }
}

TEST(Cholesky, RejectsIndefinite) {
  double a[] = {1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  double b[] = {1.0, 1.0};
  EXPECT_THROW(cholesky_solve(a, b, 2), std::runtime_error);
}

TEST(RidgeLs, RecoversExactSolutionLowLambda) {
  // Overdetermined: S (4x2, column by column) with known x, noiseless.
  Rng rng(11);
  RVec s(8);
  for (double& v : s) v = rng.normal();
  const double x_true[] = {1.0, -0.5};
  RVec b(4);
  for (std::size_t i = 0; i < 4; ++i) {
    b[i] = s[i] * x_true[0] + s[4 + i] * x_true[1];
  }
  const RVec x = ridge_least_squares(s.data(), 4, 2, b, 1e-12);
  EXPECT_NEAR(x[0], x_true[0], 1e-6);
  EXPECT_NEAR(x[1], x_true[1], 1e-6);
}

TEST(RidgeLs, LargeLambdaShrinksTowardZero) {
  const double eye[] = {1.0, 0.0, 0.0, 1.0};
  const RVec b{1.0, 1.0};
  const RVec x = ridge_least_squares(eye, 2, 2, b, 100.0);
  EXPECT_LT(std::abs(x[0]), 0.05);
}

TEST(RidgeLs, RejectsNonPositiveLambda) {
  const double eye[] = {1.0, 0.0, 0.0, 1.0};
  const RVec b{1.0, 1.0};
  EXPECT_THROW(ridge_least_squares(eye, 2, 2, b, 0.0), std::logic_error);
  double l[4];
  cplx r[] = {{1.0, 0.0}, {1.0, 0.0}};
  EXPECT_THROW(ridge_solve(eye, 2, 0.0, l, r), std::logic_error);
}

TEST(RidgeLs, ComplexRhsBitIdenticalToComplexReference) {
  // The real solve is the complex-matrix solve with zero imaginary parts,
  // evaluated in the same order: the results agree bit for bit.
  Rng rng(13);
  constexpr std::size_t kRows = 9, kCols = 3;
  RVec s(kRows * kCols);
  for (double& v : s) v = rng.normal();
  CVec b(kRows);
  for (cplx& c : b) c = rng.complex_normal();
  CMatrix ref_s(kRows, kCols);
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kRows; ++i) ref_s(i, j) = s[j * kRows + i];
  const CVec ref = testing::reference::ridge_least_squares(ref_s, b, 1e-3);

  double gram[kCols * kCols];
  cplx x[kCols];
  for (std::size_t i = 0; i < kCols; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      gram[i * kCols + j] = dot(&s[i * kRows], &s[j * kRows], kRows);
    }
    x[i] = dot(&s[i * kRows], b.data(), kRows);
  }
  double l[kCols * kCols];
  ridge_solve(gram, kCols, 1e-3, l, x);
  for (std::size_t i = 0; i < kCols; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i].real()),
              std::bit_cast<std::uint64_t>(ref[i].real()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i].imag()),
              std::bit_cast<std::uint64_t>(ref[i].imag()));
  }
}

}  // namespace
}  // namespace mmr::dsp
