// Small dense real linear algebra for the ridge-regularized least-squares
// fits in this code base: the super-resolution solve (paper Eq. 23) and
// the tracker's quadratic smoothing. Both design matrices are real (a
// sampled sinc dictionary, a Vandermonde matrix), so the normal equations
// are a real symmetric K x K system; only the right-hand side may be
// complex. The systems are tiny (K <= a handful), so a straightforward
// Cholesky on the normal equations is both adequate and robust given the
// ridge term always present in our use.
//
// Matrices are raw arrays in caller-owned scratch, so a solve never
// allocates. Every sum runs in index order from +0.0; with that order the
// results are bit-identical to forming the same normal equations over a
// complex matrix whose imaginary parts are zero.
#pragma once

#include <cstddef>

#include "common/types.h"

namespace mmr::dsp {

/// sum_i a[i] * b[i] for i = 0..n-1, accumulated in index order from +0.0.
double dot(const double* a, const double* b, std::size_t n);
cplx dot(const double* a, const cplx* b, std::size_t n);

/// Solve A x = b for a real symmetric positive-definite n x n matrix A
/// (row-major; only the lower triangle is read) via Cholesky, A = L L^T.
/// A is overwritten by L, b by x. Throws std::runtime_error if A is not
/// (numerically) positive definite.
void cholesky_solve(double* a, double* b, std::size_t n);
void cholesky_solve(double* a, cplx* b, std::size_t n);

/// Solve (G + lambda I) x = r for the n x n Gram matrix G of a real design
/// matrix (row-major; only the lower triangle is read). `l` is n * n
/// scratch that receives the Cholesky factor; r is overwritten by x.
/// lambda > 0 guarantees positive definiteness.
void ridge_solve(const double* gram, std::size_t n, double lambda, double* l,
                 double* r);
void ridge_solve(const double* gram, std::size_t n, double lambda, double* l,
                 cplx* r);

/// Ridge-regularized least squares: argmin_x ||b - S x||^2 + lambda ||x||^2
/// for a real rows x n matrix S stored column by column (column j at
/// s + j * rows), solved through the normal equations
/// (S^T S + lambda I) x = S^T b.
RVec ridge_least_squares(const double* s, std::size_t rows, std::size_t n,
                         const RVec& b, double lambda);

}  // namespace mmr::dsp
