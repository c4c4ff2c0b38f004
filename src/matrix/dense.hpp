// Column-major dense matrix. Serves as the correctness oracle in tests
// (every SpKAdd / SpGEMM result is checked against a dense accumulation)
// and as a plain dense container elsewhere — e.g. density sweeps in the
// benches. Storage is O(rows * cols); size accordingly.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "matrix/csc.hpp"

namespace spkadd {

template <class ValueT = double>
class DenseMatrix {
 public:
  DenseMatrix(std::int64_t rows, std::int64_t cols)
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), ValueT{}) {}

  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t cols() const { return cols_; }

  ValueT& operator()(std::int64_t r, std::int64_t c) {
    return data_[static_cast<std::size_t>(c * rows_ + r)];
  }
  const ValueT& operator()(std::int64_t r, std::int64_t c) const {
    return data_[static_cast<std::size_t>(c * rows_ + r)];
  }

  /// Accumulate a sparse matrix into this one (the SpKAdd oracle step).
  template <class IndexT>
  void accumulate(const CscMatrix<IndexT, ValueT>& m) {
    if (m.rows() != rows_ || m.cols() != cols_)
      throw std::invalid_argument("accumulate: shape mismatch");
    for (IndexT j = 0; j < m.cols(); ++j) {
      const auto col = m.column(j);
      for (std::size_t i = 0; i < col.nnz(); ++i)
        (*this)(col.rows[i], j) += col.vals[i];
    }
  }

  /// Dense-to-sparse conversion keeping entries where `keep(r, c)` is true.
  /// Default predicate keeps nonzero values; the SpKAdd tests instead pass
  /// the union-of-input-patterns predicate because the library keeps
  /// structural (possibly numerically zero) entries.
  template <class IndexT = std::int32_t, class Keep>
  [[nodiscard]] CscMatrix<IndexT, ValueT> to_csc(Keep&& keep) const {
    std::vector<IndexT> col_ptr(static_cast<std::size_t>(cols_) + 1, 0);
    CscArray<IndexT> row_idx;
    CscArray<ValueT> values;
    for (std::int64_t c = 0; c < cols_; ++c) {
      for (std::int64_t r = 0; r < rows_; ++r) {
        if (keep(r, c)) {
          row_idx.push_back(static_cast<IndexT>(r));
          values.push_back((*this)(r, c));
        }
      }
      col_ptr[static_cast<std::size_t>(c) + 1] =
          static_cast<IndexT>(row_idx.size());
    }
    return CscMatrix<IndexT, ValueT>(
        static_cast<IndexT>(rows_), static_cast<IndexT>(cols_),
        std::move(col_ptr), std::move(row_idx), std::move(values));
  }

 private:
  /// Validate dimensions BEFORE forming the product: rows * cols in
  /// std::int64_t can overflow (UB) or wrap through the size_t cast into a
  /// huge allocation; reject negatives first and multiply in an overflow-
  /// checked way.
  static std::size_t checked_size(std::int64_t rows, std::int64_t cols) {
    if (rows < 0 || cols < 0)
      throw std::invalid_argument("DenseMatrix: negative dimension");
    const auto r = static_cast<std::uint64_t>(rows);
    const auto c = static_cast<std::uint64_t>(cols);
    if (r != 0 && c > std::numeric_limits<std::uint64_t>::max() / r)
      throw std::invalid_argument("DenseMatrix: rows * cols overflows");
    const std::uint64_t n = r * c;
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(ValueT))
      throw std::invalid_argument("DenseMatrix: rows * cols overflows");
    return static_cast<std::size_t>(n);
  }

  std::int64_t rows_;
  std::int64_t cols_;
  std::vector<ValueT> data_;  // column-major
};

}  // namespace spkadd
