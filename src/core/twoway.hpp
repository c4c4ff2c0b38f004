// 2-way SpKAdd algorithms (paper §II-B).
//
// `add2` is the parallel pairwise addition (ColAdd over all columns, two
// passes: count then fill). On top of it:
//   * spkadd_twoway_incremental — Alg. 1, fold left: B += A_i one at a time.
//     Work O(k^2 nd) for ER inputs because the growing partial sum is
//     re-streamed every iteration.
//   * spkadd_twoway_tree — balanced binary reduction, work O(k nd lg k).
// Both require sorted input columns and always produce sorted output.
#pragma once

#include <span>

#include "core/column_kernels.hpp"
#include "core/detail.hpp"
#include "util/prefix_sum.hpp"

namespace spkadd::core {

/// Parallel 2-way addition of conformant sorted CSC matrices.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> add2(
    const CscMatrix<IndexT, ValueT>& a, const CscMatrix<IndexT, ValueT>& b,
    const Options& opts = {}) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument("add2: shape mismatch");
  const IndexT n = a.cols();
  std::vector<std::pair<IndexT, IndexT>> chunks;
  detail::cut_chunks(n, {}, opts, chunks);
  // Run body(j, counters) on every column, chunk-parallel.
  const auto column_loop = [&](auto&& body) {
    detail::for_each_chunk(
        std::span<const std::pair<IndexT, IndexT>>(chunks), opts,
        [&](std::size_t ci, OpCounters* c) {
          for (IndexT j = chunks[ci].first; j < chunks[ci].second; ++j)
            body(j, c);
        });
  };

  // Pass 1 (symbolic): exact merged size per column.
  std::vector<IndexT> counts(static_cast<std::size_t>(n));
  column_loop([&](IndexT j, OpCounters* c) {
    counts[static_cast<std::size_t>(j)] = static_cast<IndexT>(
        merge2_count(a.column(j), b.column(j), c));
  });
  std::vector<IndexT> col_ptr = util::counts_to_offsets(
      std::span<const IndexT>(counts), detail::team_size(opts));

  // Pass 2 (numeric): merge each column into its slice.
  CscMatrix<IndexT, ValueT> out(a.rows(), a.cols());
  out.set_structure(std::move(col_ptr));
  auto* out_rows = out.mutable_row_idx().data();
  auto* out_vals = out.mutable_values().data();
  const auto cp = out.col_ptr();
  column_loop([&](IndexT j, OpCounters* c) {
    const auto lo = static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
    merge2_add(a.column(j), b.column(j), out_rows + lo, out_vals + lo, c);
  });
  if (opts.counters)
    opts.counters->bytes_moved +=
        detail::streamed_bytes<IndexT, ValueT>(a.nnz() + b.nnz(), out.nnz());
  return out;
}

/// Alg. 1: incremental (left fold) 2-way SpKAdd over borrowed addends.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_twoway_incremental(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {}) {
  detail::check_conformant(inputs);
  if (opts.inputs_sorted)
    detail::require_sorted_inputs(inputs, "spkadd_twoway_incremental");
  else
    throw std::invalid_argument(
        "spkadd_twoway_incremental: requires sorted inputs");
  CscMatrix<IndexT, ValueT> acc = *inputs[0];
  for (std::size_t i = 1; i < inputs.size(); ++i)
    acc = add2(acc, *inputs[i], opts);
  return acc;
}

/// Balanced-tree 2-way SpKAdd: leaves are the borrowed inputs, each level
/// halves the count. Intermediate results are materialized (that is the
/// point: the algorithm's I/O is O(lg k * sum nnz)); odd leftovers carry
/// to the next level by pointer, never by copy. `storage` never exceeds
/// k-1 intermediates, reserved up front so the borrowed pointers into it
/// stay stable.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_twoway_tree(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {}) {
  detail::check_conformant(inputs);
  if (!opts.inputs_sorted)
    throw std::invalid_argument("spkadd_twoway_tree: requires sorted inputs");
  detail::require_sorted_inputs(inputs, "spkadd_twoway_tree");
  if (inputs.size() == 1) return *inputs[0];

  std::vector<CscMatrix<IndexT, ValueT>> storage;
  storage.reserve(inputs.size() - 1);  // exactly k-1 adds across all levels
  std::vector<const CscMatrix<IndexT, ValueT>*> level(inputs.begin(),
                                                      inputs.end());
  std::vector<const CscMatrix<IndexT, ValueT>*> next;
  while (level.size() > 1) {
    next.clear();
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      storage.push_back(add2(*level[i], *level[i + 1], opts));
      next.push_back(&storage.back());
    }
    if (level.size() % 2 != 0) next.push_back(level.back());
    std::swap(level, next);
  }
  return std::move(storage.back());
}

// Value-span convenience overloads: borrow the matrices and forward.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_twoway_incremental(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  std::vector<const CscMatrix<IndexT, ValueT>*> ptrs;
  detail::borrow_all(inputs, ptrs);
  return spkadd_twoway_incremental(MatrixPtrs<IndexT, ValueT>(ptrs), opts);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_twoway_tree(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  std::vector<const CscMatrix<IndexT, ValueT>*> ptrs;
  detail::borrow_all(inputs, ptrs);
  return spkadd_twoway_tree(MatrixPtrs<IndexT, ValueT>(ptrs), opts);
}

}  // namespace spkadd::core
