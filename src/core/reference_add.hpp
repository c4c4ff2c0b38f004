// Library-style pairwise addition — the stand-in for Intel MKL's
// mkl_sparse_d_add in the paper's "MKL Incremental" / "MKL Tree" baselines.
//
// What makes an off-the-shelf pairwise add slow in the SpKAdd setting is
// structural, not vendor-specific: each call (a) runs sequentially per call
// site the way a black-box library routine is typically invoked from a
// serial caller loop, (b) allocates and returns a brand-new handle,
// (c) canonicalizes (sorts) its output unconditionally, and (d) cannot fuse
// across the k-1 calls. This reference adder reproduces exactly those
// properties; the relative ordering of the MKL rows in Tables III-IV follows.
// core::spkadd folds it with twoway.hpp's fold_left ("MKL Incremental") and
// fold_tree ("MKL Tree").
#pragma once

#include <stdexcept>
#include <vector>

#include "core/column_kernels.hpp"
#include "matrix/csc.hpp"

namespace spkadd::core {

/// Sequential, allocation-per-call, always-sorting pairwise add.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> reference_add2(
    const CscMatrix<IndexT, ValueT>& a_in,
    const CscMatrix<IndexT, ValueT>& b_in) {
  if (a_in.rows() != b_in.rows() || a_in.cols() != b_in.cols())
    throw std::invalid_argument("reference_add2: shape mismatch");
  // A library entry point converts caller arrays into its internal handle
  // representation before computing — one defensive copy per operand per
  // call. This (not the merge itself) is much of why folding k-1 black-box
  // calls is slow.
  const CscMatrix<IndexT, ValueT> a = a_in;
  const CscMatrix<IndexT, ValueT> b = b_in;
  const IndexT n = a.cols();

  // A library routine sizes its output pessimistically first (one symbolic
  // sweep), allocates a fresh result handle, then fills sequentially.
  std::vector<IndexT> col_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (IndexT j = 0; j < n; ++j)
    col_ptr[static_cast<std::size_t>(j) + 1] =
        col_ptr[static_cast<std::size_t>(j)] +
        static_cast<IndexT>(merge2_count(a.column(j), b.column(j)));

  CscMatrix<IndexT, ValueT> out(a.rows(), a.cols());
  out.set_structure(std::move(col_ptr));
  auto* rows = out.mutable_row_idx().data();
  auto* vals = out.mutable_values().data();
  const auto cp = out.col_ptr();
  for (IndexT j = 0; j < n; ++j) {
    const auto lo = static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
    merge2_add(a.column(j), b.column(j), rows + lo, vals + lo);
  }
  return out;
}

}  // namespace spkadd::core
