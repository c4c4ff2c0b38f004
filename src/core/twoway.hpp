// 2-way SpKAdd algorithms (paper §II-B).
//
// `add2` is the parallel pairwise addition (ColAdd over all columns, two
// passes: count then fill). Two reductions fold any pairwise add over k
// addends:
//   * fold_left — Alg. 1: B += A_i one at a time. Work O(k^2 nd) for ER
//     inputs because the growing partial sum is re-streamed every step.
//   * fold_tree — balanced binary reduction, work O(k nd lg k).
// core::spkadd runs both over add2 (the 2-way methods) and over
// reference_add2 (the MKL-substitute baselines). Every pairwise add
// needs sorted input columns and produces sorted output.
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

/// Alg. 1: fold `add` left to right over k >= 1 borrowed addends,
/// add(...add(add(A_1, A_2), A_3)..., A_k).
template <class IndexT, class ValueT, class Add>
[[nodiscard]] CscMatrix<IndexT, ValueT> fold_left(
    MatrixPtrs<IndexT, ValueT> inputs, Add&& add) {
  if (inputs.size() == 1) return *inputs[0];
  CscMatrix<IndexT, ValueT> acc = add(*inputs[0], *inputs[1]);
  for (std::size_t i = 2; i < inputs.size(); ++i) acc = add(acc, *inputs[i]);
  return acc;
}

/// Balanced-tree reduction of `add` over k >= 1 borrowed addends: each
/// level adds neighbours pairwise and halves the count. Intermediate
/// results are materialized (that is the point: the algorithm's I/O is
/// O(lg k * sum nnz)); odd leftovers carry to the next level by pointer,
/// never by copy. `storage` never exceeds k-1 intermediates, reserved up
/// front so the borrowed pointers into it stay stable.
template <class IndexT, class ValueT, class Add>
[[nodiscard]] CscMatrix<IndexT, ValueT> fold_tree(
    MatrixPtrs<IndexT, ValueT> inputs, Add&& add) {
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
      storage.push_back(add(*level[i], *level[i + 1]));
      next.push_back(&storage.back());
    }
    if (level.size() % 2 != 0) next.push_back(level.back());
    std::swap(level, next);
  }
  return std::move(storage.back());
}

}  // namespace spkadd::core
