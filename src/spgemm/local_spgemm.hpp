// Local (shared-memory) sparse matrix-matrix multiplication, C = A * B.
//
// This is the substrate that *produces* the SpKAdd inputs in the paper's
// motivating application: every stage of distributed sparse SUMMA performs a
// local SpGEMM, and the per-stage products are then reduced with SpKAdd
// (paper Fig. 5/6). Two accumulators are provided, mirroring the SpKAdd
// data-structure story:
//   * Hash  — Gustavson's column algorithm with a hash-table accumulator
//             (symbolic + numeric phases); can emit unsorted columns, which
//             is what makes the "Unsorted Hash" pipeline of Fig. 6 possible.
//   * Heap  — k-way merge of the scaled columns of A selected by B(:,j),
//             always sorted, the CombBLAS default the paper replaces.
#pragma once

#include "util/omp_compat.hpp"

#include <span>
#include <stdexcept>
#include <vector>

#include "core/column_kernels.hpp"
#include "core/options.hpp"
#include "core/workspace.hpp"
#include "matrix/csc.hpp"
#include "util/prefix_sum.hpp"
#include "util/radix_sort.hpp"
#include "util/thread_control.hpp"

namespace spkadd::spgemm {

/// Accumulator choice for the local multiply.
enum class Accumulator { Hash, Heap };

struct SpgemmOptions {
  Accumulator accumulator = Accumulator::Hash;
  /// Sort output columns. Heap output is sorted regardless; hash skips the
  /// per-column sort when false (the 20% saving reported in Fig. 6).
  bool sorted_output = true;
  int threads = 0;  ///< 0 = omp default
};

namespace detail {

/// Numeric pass with a hash accumulator; writes exactly `expected` entries.
template <class IndexT, class ValueT>
void numeric_column_hash(const CscMatrix<IndexT, ValueT>& a,
                         const ColumnView<IndexT, ValueT>& bcol,
                         std::size_t expected,
                         core::HashWorkspace<IndexT, ValueT>& ws,
                         IndexT* out_rows, ValueT* out_vals, bool sorted) {
  if (expected == 0) return;
  ws.reset(core::hash_table_entries(expected));
  for (std::size_t t = 0; t < bcol.nnz(); ++t) {
    const auto acol = a.column(bcol.rows[t]);
    const ValueT bval = bcol.vals[t];
    for (std::size_t i = 0; i < acol.nnz(); ++i) {
      const IndexT r = acol.rows[i];
      const ValueT v = acol.vals[i] * bval;
      std::size_t h = core::hash_index(r, ws.mask);
      for (;;) {
        if (ws.keys[h] == core::HashWorkspace<IndexT, ValueT>::kEmpty) {
          ws.keys[h] = r;
          ws.vals[h] = v;
          break;
        }
        if (ws.keys[h] == r) {
          ws.vals[h] += v;
          break;
        }
        h = (h + 1) & ws.mask;
      }
    }
  }
  std::size_t out = 0;
  for (std::size_t h = 0; h < ws.capacity(); ++h) {
    if (ws.keys[h] != core::HashWorkspace<IndexT, ValueT>::kEmpty) {
      out_rows[out] = ws.keys[h];
      out_vals[out++] = ws.vals[h];
    }
  }
  if (sorted && out > 1) {
    thread_local util::RadixScratch<IndexT, ValueT> sort_scratch;
    util::radix_sort_pairs(out_rows, out_vals, out, sort_scratch);
  }
}

/// Numeric pass with a heap accumulator: k-way merge of the selected
/// columns of A, scaling each by its B value on extraction. Sorted output
/// by construction. Requires sorted columns of A.
template <class IndexT, class ValueT>
std::size_t numeric_column_heap(const CscMatrix<IndexT, ValueT>& a,
                                const ColumnView<IndexT, ValueT>& bcol,
                                core::HeapWorkspace<IndexT>& ws,
                                std::vector<ValueT>& scale_scratch,
                                std::vector<ColumnView<IndexT, ValueT>>& views,
                                IndexT* out_rows, ValueT* out_vals) {
  views.clear();
  scale_scratch.clear();
  for (std::size_t t = 0; t < bcol.nnz(); ++t) {
    const auto acol = a.column(bcol.rows[t]);
    if (!acol.empty()) {
      views.push_back(acol);
      scale_scratch.push_back(bcol.vals[t]);
    }
  }
  using Node = typename core::HeapWorkspace<IndexT>::Node;
  ws.ensure_k(views.size());
  ws.nodes.clear();
  for (std::size_t i = 0; i < views.size(); ++i) {
    ws.cursor[i] = 0;
    ws.nodes.push_back(Node{views[i].rows[0], static_cast<std::int32_t>(i)});
  }
  auto less = [](const Node& x, const Node& y) { return x.row > y.row; };
  std::make_heap(ws.nodes.begin(), ws.nodes.end(), less);
  std::size_t out = 0;
  while (!ws.nodes.empty()) {
    const Node top = ws.nodes.front();
    const auto src = static_cast<std::size_t>(top.source);
    const ValueT v = views[src].vals[ws.cursor[src]] * scale_scratch[src];
    if (out > 0 && out_rows[out - 1] == top.row) {
      out_vals[out - 1] += v;
    } else {
      out_rows[out] = top.row;
      out_vals[out++] = v;
    }
    const std::size_t next = ++ws.cursor[src];
    if (next < views[src].nnz()) {
      std::size_t hole = 0;
      const std::size_t n = ws.nodes.size();
      Node item{views[src].rows[next], top.source};
      for (;;) {
        std::size_t child = 2 * hole + 1;
        if (child >= n) break;
        if (child + 1 < n && ws.nodes[child + 1].row < ws.nodes[child].row)
          ++child;
        if (ws.nodes[child].row >= item.row) break;
        ws.nodes[hole] = ws.nodes[child];
        hole = child;
      }
      ws.nodes[hole] = item;
    } else {
      std::pop_heap(ws.nodes.begin(), ws.nodes.end(), less);
      ws.nodes.pop_back();
    }
  }
  return out;
}

}  // namespace detail

/// C = A * B, emitted into `out` (which is reset to an m x n product). A is
/// m x p, B is p x n. Column-parallel over the columns of B/C with
/// thread-private accumulators and two-phase exact allocation; the scratch
/// comes from the calling thread's Runtime (the same per-thread superset
/// pool the SpKAdd drivers use), so a streaming consumer — the SUMMA
/// pipeline emitting stage products straight into accumulator-owned
/// staging buffers — keeps one hot scratch pool across every multiply *and*
/// every fold.
template <class IndexT, class ValueT>
void multiply_into(const CscMatrix<IndexT, ValueT>& a,
                   const CscMatrix<IndexT, ValueT>& b,
                   const SpgemmOptions& opts, CscMatrix<IndexT, ValueT>& out) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("spgemm: inner dimensions disagree");
  if (opts.accumulator == Accumulator::Heap && !a.is_sorted())
    throw std::invalid_argument("spgemm(Heap): A must have sorted columns");
  const IndexT n = b.cols();
  const int nthreads =
      opts.threads > 0 ? opts.threads : util::current_max_threads();
  auto& rt = core::thread_runtime<IndexT, ValueT>();
  rt.ensure_threads(nthreads);

  // Symbolic phase: nnz(C(:,j)) is SpKAdd's Alg. 6 over the columns of A
  // that B(:,j) selects, a keys-only table sized by their summed nnz (the
  // column's flops).
  std::vector<IndexT> counts(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(dynamic, 8) num_threads(nthreads)
  for (IndexT j = 0; j < n; ++j) {
    auto& s = rt.scratch[static_cast<std::size_t>(omp_get_thread_num())];
    const auto bcol = b.column(j);
    s.views.clear();
    for (std::size_t t = 0; t < bcol.nnz(); ++t) {
      const auto acol = a.column(bcol.rows[t]);
      if (!acol.empty()) s.views.push_back(acol);
    }
    counts[static_cast<std::size_t>(j)] =
        static_cast<IndexT>(core::hash_symbolic_column(
            std::span<const ColumnView<IndexT, ValueT>>(s.views),
            s.sym_table));
  }

  out = CscMatrix<IndexT, ValueT>(a.rows(), n);
  out.set_structure(
      util::counts_to_offsets(std::span<const IndexT>(counts), nthreads));
  auto* out_rows = out.mutable_row_idx().data();
  auto* out_vals = out.mutable_values().data();
  const auto cp = out.col_ptr();

  // Numeric phase.
  if (opts.accumulator == Accumulator::Hash) {
#pragma omp parallel for schedule(dynamic, 8) num_threads(nthreads)
    for (IndexT j = 0; j < n; ++j) {
      auto& s = rt.scratch[static_cast<std::size_t>(omp_get_thread_num())];
      const auto lo = static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
      const auto expected = static_cast<std::size_t>(
          cp[static_cast<std::size_t>(j) + 1] -
          cp[static_cast<std::size_t>(j)]);
      detail::numeric_column_hash(a, b.column(j), expected, s.table,
                                  out_rows + lo, out_vals + lo,
                                  opts.sorted_output);
    }
  } else {
#pragma omp parallel for schedule(dynamic, 8) num_threads(nthreads)
    for (IndexT j = 0; j < n; ++j) {
      auto& s = rt.scratch[static_cast<std::size_t>(omp_get_thread_num())];
      const auto lo = static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
      detail::numeric_column_heap(a, b.column(j), s.heap, s.vals_scratch,
                                  s.views, out_rows + lo, out_vals + lo);
    }
  }
}

/// C = A * B (the one-shot convenience API).
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> multiply(
    const CscMatrix<IndexT, ValueT>& a, const CscMatrix<IndexT, ValueT>& b,
    const SpgemmOptions& opts = {}) {
  CscMatrix<IndexT, ValueT> c;
  multiply_into(a, b, opts, c);
  return c;
}

}  // namespace spkadd::spgemm
