#include "linalg/solve.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace bf::linalg {

std::vector<double> cholesky_solve(const Matrix& a,
                                   const std::vector<double>& b) {
  const std::size_t n = a.rows();
  BF_CHECK_MSG(a.cols() == n, "cholesky_solve needs a square matrix");
  BF_CHECK_MSG(b.size() == n, "rhs size mismatch");

  // Factor A = L L^T (lower triangular L stored densely).
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    BF_CHECK_MSG(diag > 1e-12, "matrix is not positive definite (pivot "
                                   << diag << " at column " << j << ")");
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / l(j, j);
    }
  }

  // Forward substitution L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l(i, k) * y[k];
    y[i] = v / l(i, i);
  }
  // Back substitution L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l(k, ii) * x[k];
    x[ii] = v / l(ii, ii);
  }
  return x;
}

LeastSquaresResult qr_least_squares(const Matrix& a,
                                    const std::vector<double>& b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  BF_CHECK_MSG(b.size() == m, "rhs size mismatch");
  BF_CHECK_MSG(m >= 1 && n >= 1, "empty least-squares system");

  // Working copies; R overwrites `r`, rhs is transformed in place.
  Matrix r = a;
  std::vector<double> rhs = b;
  // Unchecked row-major access: every loop below stays inside m x n.
  double* const rd = r.row_ptr(0);
  const auto at = [rd, n](std::size_t i, std::size_t j) -> double& {
    return rd[i * n + j];
  };
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});

  // Column norms for pivoting.
  std::vector<double> col_norm2(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) col_norm2[j] += at(i, j) * at(i, j);
  }
  const double total_scale =
      std::sqrt(*std::max_element(col_norm2.begin(), col_norm2.end()));
  const double rank_tol = std::max(1e-10, 1e-12 * total_scale);

  const std::size_t steps = std::min(m, n);
  std::size_t rank = 0;
  for (std::size_t k = 0; k < steps; ++k) {
    // Pivot: bring the column with the largest remaining norm to position k.
    std::size_t piv = k;
    double best = 0.0;
    for (std::size_t j = k; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += at(i, j) * at(i, j);
      if (s > best) {
        best = s;
        piv = j;
      }
    }
    if (std::sqrt(best) <= rank_tol) break;  // remaining columns negligible
    if (piv != k) {
      for (std::size_t i = 0; i < m; ++i) std::swap(at(i, k), at(i, piv));
      std::swap(perm[k], perm[piv]);
    }

    // Householder vector v for column k.
    double alpha = 0.0;
    for (std::size_t i = k; i < m; ++i) alpha += at(i, k) * at(i, k);
    alpha = std::sqrt(alpha);
    if (at(k, k) > 0) alpha = -alpha;
    std::vector<double> v(m - k);
    v[0] = at(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = at(i, k);
    double vnorm2 = 0.0;
    for (double t : v) vnorm2 += t * t;
    if (vnorm2 <= 0.0) continue;

    // Apply H = I - 2 v v^T / (v^T v) to the remaining columns and rhs.
    for (std::size_t j = k; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += v[i - k] * at(i, j);
      s = 2.0 * s / vnorm2;
      for (std::size_t i = k; i < m; ++i) at(i, j) -= s * v[i - k];
    }
    double s = 0.0;
    for (std::size_t i = k; i < m; ++i) s += v[i - k] * rhs[i];
    s = 2.0 * s / vnorm2;
    for (std::size_t i = k; i < m; ++i) rhs[i] -= s * v[i - k];

    at(k, k) = alpha;
    ++rank;
  }

  // Back substitution on the leading rank x rank triangle.
  std::vector<double> xp(n, 0.0);
  for (std::size_t ii = rank; ii-- > 0;) {
    double v = rhs[ii];
    for (std::size_t j = ii + 1; j < rank; ++j) v -= at(ii, j) * xp[j];
    BF_CHECK_MSG(std::fabs(at(ii, ii)) > 1e-14, "singular R in QR solve");
    xp[ii] = v / at(ii, ii);
  }

  LeastSquaresResult out;
  out.coefficients.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) out.coefficients[perm[j]] = xp[j];
  double res2 = 0.0;
  for (std::size_t i = rank; i < m; ++i) res2 += rhs[i] * rhs[i];
  out.residual_norm = std::sqrt(res2);
  out.rank = rank;
  return out;
}

}  // namespace bf::linalg
