// Submatrix (block) extraction with index re-basing.
//
// The simulated sparse SUMMA distributes A and B over a logical process grid
// by row/column ranges; each "process" owns a re-based block. Row slicing
// uses binary search per column and therefore requires sorted columns.
#pragma once

#include <stdexcept>
#include <vector>

#include "matrix/csc.hpp"

namespace spkadd {

/// Extract m[r0:r1, c0:c1) as a (r1-r0) x (c1-c0) matrix with indices
/// re-based to the block origin. Requires sorted columns.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> extract_block(
    const CscMatrix<IndexT, ValueT>& m, IndexT r0, IndexT r1, IndexT c0,
    IndexT c1) {
  if (r0 < 0 || r1 > m.rows() || r0 > r1 || c0 < 0 || c1 > m.cols() ||
      c0 > c1)
    throw std::invalid_argument("extract_block: bad range");
  const IndexT bcols = c1 - c0;
  std::vector<IndexT> col_ptr(static_cast<std::size_t>(bcols) + 1, 0);
  CscArray<IndexT> row_idx;
  CscArray<ValueT> values;
  for (IndexT j = 0; j < bcols; ++j) {
    const auto sub = m.column(c0 + j).row_range(r0, r1);
    for (std::size_t i = 0; i < sub.nnz(); ++i) {
      row_idx.push_back(sub.rows[i] - r0);
      values.push_back(sub.vals[i]);
    }
    col_ptr[static_cast<std::size_t>(j) + 1] =
        static_cast<IndexT>(row_idx.size());
  }
  return CscMatrix<IndexT, ValueT>(r1 - r0, bcols, std::move(col_ptr),
                                   std::move(row_idx), std::move(values));
}

/// Even 1-D partition boundaries: bounds[i] = n*i/parts for i in [0, parts].
template <class IndexT>
[[nodiscard]] std::vector<IndexT> partition_bounds(IndexT n, int parts) {
  std::vector<IndexT> bounds(static_cast<std::size_t>(parts) + 1);
  for (int i = 0; i <= parts; ++i)
    bounds[static_cast<std::size_t>(i)] = static_cast<IndexT>(
        static_cast<std::int64_t>(n) * i / parts);
  return bounds;
}

}  // namespace spkadd
