// Compressed Sparse Column matrix — the primary container of the library.
//
// The paper assumes all operands of SpKAdd are CSC ("stores nonzero entries
// column by column", §II-A); every algorithm then adds the jth columns of all
// inputs independently, which is what makes the column-parallel strategy
// synchronization-free.
//
// Conventions:
//   * col_ptr has size cols()+1, col_ptr[0] == 0, col_ptr[cols()] == nnz().
//   * Columns are "sorted" when row indices are strictly ascending within
//     each column (no duplicates). Hash and dense kernels tolerate
//     unsorted columns; merge/heap kernels require sorted ones (Table I).
//   * Explicit numeric zeros are kept: sparsity is structural.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "matrix/column_view.hpp"

namespace spkadd {

namespace debug {

/// Process-wide count of CscMatrix deep copies (any index/value type).
/// The streaming accumulator promises zero per-batch input-matrix copies;
/// tests pin that guarantee by differencing this counter around a call.
/// Relaxed atomics: the counter is a tally, not a synchronization point.
inline std::atomic<std::uint64_t>& csc_copy_counter() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

[[nodiscard]] inline std::uint64_t csc_copies() {
  return csc_copy_counter().load(std::memory_order_relaxed);
}

}  // namespace debug

template <class IndexT = std::int32_t, class ValueT = double>
class CscMatrix {
 public:
  using index_type = IndexT;
  using value_type = ValueT;

  /// Empty 0x0 matrix.
  CscMatrix() : col_ptr_(1, 0) {}

  /// rows x cols matrix with no stored entries.
  CscMatrix(IndexT rows, IndexT cols)
      : rows_(rows), cols_(cols),
        col_ptr_(static_cast<std::size_t>(cols) + 1, 0) {
    if constexpr (std::is_signed_v<IndexT>) {
      if (rows < 0 || cols < 0)
        throw std::invalid_argument("CscMatrix: negative dimension");
    }
  }

  /// Adopt pre-built CSC arrays. `col_ptr.size() == cols+1`,
  /// `row_idx.size() == values.size() == col_ptr.back()`.
  CscMatrix(IndexT rows, IndexT cols, std::vector<IndexT> col_ptr,
            std::vector<IndexT> row_idx, std::vector<ValueT> values)
      : rows_(rows), cols_(cols), col_ptr_(std::move(col_ptr)),
        row_idx_(std::move(row_idx)), values_(std::move(values)) {
    if constexpr (std::is_signed_v<IndexT>) {
      if (rows < 0 || cols < 0)
        throw std::invalid_argument("CscMatrix: negative dimension");
    }
    if (col_ptr_.size() != static_cast<std::size_t>(cols) + 1)
      throw std::invalid_argument("CscMatrix: col_ptr size mismatch");
    if (col_ptr_.front() != 0)
      throw std::invalid_argument("CscMatrix: col_ptr[0] != 0");
    const auto nz = static_cast<std::size_t>(col_ptr_.back());
    if (row_idx_.size() != nz || values_.size() != nz)
      throw std::invalid_argument("CscMatrix: array length != col_ptr.back()");
  }

  // Copies are counted (see debug::csc_copy_counter) so tests can assert
  // the zero-copy guarantees of the streaming paths; moves stay free.
  CscMatrix(const CscMatrix& o)
      : rows_(o.rows_), cols_(o.cols_), col_ptr_(o.col_ptr_),
        row_idx_(o.row_idx_), values_(o.values_) {
    debug::csc_copy_counter().fetch_add(1, std::memory_order_relaxed);
  }
  CscMatrix& operator=(const CscMatrix& o) {
    if (this != &o) {
      rows_ = o.rows_;
      cols_ = o.cols_;
      col_ptr_ = o.col_ptr_;
      row_idx_ = o.row_idx_;
      values_ = o.values_;
      debug::csc_copy_counter().fetch_add(1, std::memory_order_relaxed);
    }
    return *this;
  }
  CscMatrix(CscMatrix&&) noexcept = default;
  CscMatrix& operator=(CscMatrix&&) noexcept = default;

  [[nodiscard]] IndexT rows() const { return rows_; }
  [[nodiscard]] IndexT cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const {
    return static_cast<std::size_t>(col_ptr_.back());
  }
  [[nodiscard]] bool empty() const { return nnz() == 0; }

  [[nodiscard]] std::span<const IndexT> col_ptr() const { return col_ptr_; }
  [[nodiscard]] std::span<const IndexT> row_idx() const { return row_idx_; }
  [[nodiscard]] std::span<const ValueT> values() const { return values_; }

  [[nodiscard]] std::span<IndexT> mutable_col_ptr() { return col_ptr_; }
  [[nodiscard]] std::span<IndexT> mutable_row_idx() { return row_idx_; }
  [[nodiscard]] std::span<ValueT> mutable_values() { return values_; }

  /// Number of stored entries in column j.
  [[nodiscard]] std::size_t col_nnz(IndexT j) const {
    return static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(j) + 1] -
                                    col_ptr_[static_cast<std::size_t>(j)]);
  }

  /// Non-owning view of column j's (row, value) tuples.
  [[nodiscard]] ColumnView<IndexT, ValueT> column(IndexT j) const {
    const auto lo =
        static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(j)]);
    const auto len = col_nnz(j);
    return ColumnView<IndexT, ValueT>{
        std::span<const IndexT>(row_idx_).subspan(lo, len),
        std::span<const ValueT>(values_).subspan(lo, len)};
  }

  /// Reserve storage and set the column-pointer array from per-column
  /// counts; used by numeric phases after a symbolic pass.
  void set_structure(std::vector<IndexT> col_ptr) {
    if (col_ptr.size() != static_cast<std::size_t>(cols_) + 1)
      throw std::invalid_argument("set_structure: col_ptr size mismatch");
    col_ptr_ = std::move(col_ptr);
    row_idx_.resize(static_cast<std::size_t>(col_ptr_.back()));
    values_.resize(static_cast<std::size_t>(col_ptr_.back()));
  }

  /// True when every column has strictly ascending row indices.
  [[nodiscard]] bool is_sorted() const {
    for (IndexT j = 0; j < cols_; ++j)
      if (!column(j).is_sorted_strict()) return false;
    return true;
  }

  /// Sort every column by row index (pairwise with its value). Duplicate
  /// row indices are NOT merged — use CooMatrix::compress for that.
  void sort_columns() {
    std::vector<std::pair<IndexT, ValueT>> buf;
    for (IndexT j = 0; j < cols_; ++j) {
      const auto lo =
          static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(j)]);
      const auto hi =
          static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(j) + 1]);
      if (hi - lo <= 1) continue;
      bool sorted = true;
      for (std::size_t i = lo + 1; i < hi; ++i)
        if (row_idx_[i] < row_idx_[i - 1]) { sorted = false; break; }
      if (sorted) continue;
      buf.clear();
      buf.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i)
        buf.emplace_back(row_idx_[i], values_[i]);
      std::sort(buf.begin(), buf.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t i = lo; i < hi; ++i) {
        row_idx_[i] = buf[i - lo].first;
        values_[i] = buf[i - lo].second;
      }
    }
  }

  /// Value at (r, j), or 0 when not stored. O(log nnz(col)) on sorted
  /// columns, O(nnz(col)) otherwise. Convenience for tests/examples.
  [[nodiscard]] ValueT at(IndexT r, IndexT j) const {
    const auto col = column(j);
    if (col.is_sorted_strict()) {
      auto it = std::lower_bound(col.rows.begin(), col.rows.end(), r);
      if (it != col.rows.end() && *it == r)
        return col.vals[static_cast<std::size_t>(it - col.rows.begin())];
      return ValueT{};
    }
    ValueT sum{};
    for (std::size_t i = 0; i < col.nnz(); ++i)
      if (col.rows[i] == r) sum += col.vals[i];
    return sum;
  }

  /// Exact structural + numeric equality.
  friend bool operator==(const CscMatrix& a, const CscMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
           a.col_ptr_ == b.col_ptr_ && a.row_idx_ == b.row_idx_ &&
           a.values_ == b.values_;
  }

  /// Bytes of heap storage held (used by memory-footprint reporting).
  [[nodiscard]] std::size_t storage_bytes() const {
    return col_ptr_.capacity() * sizeof(IndexT) +
           row_idx_.capacity() * sizeof(IndexT) +
           values_.capacity() * sizeof(ValueT);
  }

 private:
  IndexT rows_ = 0;
  IndexT cols_ = 0;
  std::vector<IndexT> col_ptr_;
  std::vector<IndexT> row_idx_;
  std::vector<ValueT> values_;
};

}  // namespace spkadd
