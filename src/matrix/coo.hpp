// Coordinate-format matrix: an unordered list of (row, col, value) triples.
//
// COO is the natural output of the R-MAT generator; `compress()` +
// `to_csc()` turn it into the canonical CSC form used by the SpKAdd
// kernels.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "matrix/csc.hpp"
#include "util/prefix_sum.hpp"

namespace spkadd {

template <class IndexT = std::int32_t, class ValueT = double>
class CooMatrix {
 public:
  using index_type = IndexT;
  using value_type = ValueT;

  struct Entry {
    IndexT row;
    IndexT col;
    ValueT val;
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  CooMatrix() = default;
  CooMatrix(IndexT rows, IndexT cols) : rows_(rows), cols_(cols) {
    if (rows < 0 || cols < 0)
      throw std::invalid_argument("CooMatrix: negative dimension");
  }

  [[nodiscard]] IndexT rows() const { return rows_; }
  [[nodiscard]] IndexT cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return entries_.size(); }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] std::vector<Entry>& entries() { return entries_; }

  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Append a triple; duplicates allowed until compress().
  void push(IndexT r, IndexT c, ValueT v) {
    if (r < 0 || r >= rows_ || c < 0 || c >= cols_)
      throw std::out_of_range("CooMatrix::push: index out of range");
    entries_.push_back(Entry{r, c, v});
  }

  /// Sort triples by (col, row) and sum duplicates — the canonicalization
  /// both the generator (R-MAT emits repeated edges) and MM reader need.
  void compress() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                return a.col != b.col ? a.col < b.col : a.row < b.row;
              });
    std::size_t w = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (w > 0 && entries_[w - 1].row == entries_[i].row &&
          entries_[w - 1].col == entries_[i].col) {
        entries_[w - 1].val += entries_[i].val;
      } else {
        entries_[w++] = entries_[i];
      }
    }
    entries_.resize(w);
  }

  /// Convert to CSC. Requires compress() (or entries already unique and
  /// (col,row)-sorted) for a canonical sorted result; otherwise the columns
  /// come out unsorted but still valid.
  [[nodiscard]] CscMatrix<IndexT, ValueT> to_csc() const {
    std::vector<IndexT> counts(static_cast<std::size_t>(cols_), 0);
    for (const Entry& e : entries_)
      ++counts[static_cast<std::size_t>(e.col)];
    std::vector<IndexT> col_ptr =
        util::counts_to_offsets(std::span<const IndexT>(counts));
    std::vector<IndexT> cursor(col_ptr.begin(), col_ptr.end() - 1);
    std::vector<IndexT> row_idx(entries_.size());
    std::vector<ValueT> values(entries_.size());
    for (const Entry& e : entries_) {
      auto& cur = cursor[static_cast<std::size_t>(e.col)];
      row_idx[static_cast<std::size_t>(cur)] = e.row;
      values[static_cast<std::size_t>(cur)] = e.val;
      ++cur;
    }
    return CscMatrix<IndexT, ValueT>(rows_, cols_, std::move(col_ptr),
                                     std::move(row_idx), std::move(values));
  }

  /// Rebuild from CSC (used by I/O round-trips).
  static CooMatrix from_csc(const CscMatrix<IndexT, ValueT>& m) {
    CooMatrix out(m.rows(), m.cols());
    out.reserve(m.nnz());
    for (IndexT j = 0; j < m.cols(); ++j) {
      const auto col = m.column(j);
      for (std::size_t i = 0; i < col.nnz(); ++i)
        out.entries_.push_back(Entry{col.rows[i], j, col.vals[i]});
    }
    return out;
  }

 private:
  IndexT rows_ = 0;
  IndexT cols_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace spkadd
