#include "dsp/linalg.h"

#include <cmath>
#include <stdexcept>

#include "common/error.h"

namespace mmr::dsp {
namespace {

template <typename T>
T dot_impl(const double* a, const T* b, std::size_t n) {
  T acc{};
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

template <typename T>
void cholesky_solve_impl(double* a, T* b, std::size_t n) {
  // Factor A = L L^T in place (lower triangle).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) sum -= a[i * n + k] * a[j * n + k];
      if (i == j) {
        if (sum <= 0.0) {
          throw std::runtime_error(
              "cholesky_solve: matrix is not positive definite");
        }
        a[i * n + i] = std::sqrt(sum);
      } else {
        a[i * n + j] = sum / a[j * n + j];
      }
    }
  }
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    T sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= a[i * n + k] * b[k];
    b[i] = sum / a[i * n + i];
  }
  // Back substitution L^T x = y.
  for (std::size_t i = n; i-- > 0;) {
    T sum = b[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= a[k * n + i] * b[k];
    b[i] = sum / a[i * n + i];
  }
}

template <typename T>
void ridge_solve_impl(const double* gram, std::size_t n, double lambda,
                      double* l, T* r) {
  MMR_EXPECTS(lambda > 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) l[i * n + j] = gram[i * n + j];
    l[i * n + i] += lambda;
  }
  cholesky_solve_impl(l, r, n);
}

}  // namespace

double dot(const double* a, const double* b, std::size_t n) {
  return dot_impl(a, b, n);
}

cplx dot(const double* a, const cplx* b, std::size_t n) {
  return dot_impl(a, b, n);
}

void cholesky_solve(double* a, double* b, std::size_t n) {
  cholesky_solve_impl(a, b, n);
}

void cholesky_solve(double* a, cplx* b, std::size_t n) {
  cholesky_solve_impl(a, b, n);
}

void ridge_solve(const double* gram, std::size_t n, double lambda, double* l,
                 double* r) {
  ridge_solve_impl(gram, n, lambda, l, r);
}

void ridge_solve(const double* gram, std::size_t n, double lambda, double* l,
                 cplx* r) {
  ridge_solve_impl(gram, n, lambda, l, r);
}

RVec ridge_least_squares(const double* s, std::size_t rows, std::size_t n,
                         const RVec& b, double lambda) {
  MMR_EXPECTS(b.size() == rows);
  RVec gram(n * n);
  RVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      gram[i * n + j] = dot(s + i * rows, s + j * rows, rows);
    }
    x[i] = dot(s + i * rows, b.data(), rows);
  }
  RVec l(n * n);
  ridge_solve(gram.data(), n, lambda, l.data(), x.data());
  return x;
}

}  // namespace mmr::dsp
