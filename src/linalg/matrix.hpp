// Dense row-major double matrix.
//
// This is the numerical workhorse under bf::ml (PCA covariance, OLS normal
// equations, MARS least squares). It is intentionally small: BlackForest's
// datasets are tens-to-hundreds of rows by tens of columns, so clarity and
// checkable invariants beat blocking/vectorisation tricks here.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace bf::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construct from nested braces: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  /// Column vector from data.
  static Matrix column(const std::vector<double>& v);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Bounds-checked element access; throws bf::Error out of range.
  double& operator()(std::size_t r, std::size_t c) {
    check_index(r, c);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    check_index(r, c);
    return data_[r * cols_ + c];
  }

  /// Raw row pointer (row-major contiguous storage).
  double* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  const std::vector<double>& data() const { return data_; }

  Matrix transpose() const;
  Matrix operator*(const Matrix& rhs) const;
  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix& operator*=(double s);
  Matrix operator*(double s) const;

  /// y = A * x for a vector x (x.size() == cols()).
  std::vector<double> apply(const std::vector<double>& x) const;

  /// Extract a column as a vector.
  std::vector<double> column_vec(std::size_t c) const;
  void set_column(std::size_t c, const std::vector<double>& v);

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Max |a_ij - b_ij|; matrices must be the same shape.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

  /// Human-readable rendering for debugging.
  std::string to_string(int precision = 4) const;

 private:
  void check_index(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) [[unlikely]] throw_index_error(r, c);
  }
  [[noreturn]] void throw_index_error(std::size_t r, std::size_t c) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Dot product of equal-length vectors.
double dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm.
double norm2(const std::vector<double>& v);

}  // namespace bf::linalg
