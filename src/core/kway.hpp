// k-way SpKAdd drivers (paper §II-C, §III).
//
// All drivers share the same two-phase shape:
//   1. symbolic — nnz(B(:,j)) per column (hash-based, Alg. 6/7), exclusive
//      scan into the output col_ptr, exact allocation;
//   2. numeric — column-parallel loop filling each output slice with the
//      method's kernel on thread-private scratch.
// The loop is synchronization-free because output slices are disjoint.
// The five single-kernel drivers run one kernel for every column;
// spkadd_hybrid (behind Method::Auto and Method::Hybrid) evaluates the
// Fig. 2 surface per nnz-balanced column chunk and mixes kernels through
// the uniform ColumnKernel interface.
//
// Primary signatures take borrowed matrix pointers (MatrixPtrs) plus an
// optional Runtime: the streaming accumulator folds batches through these
// without copying an input and with scratch that survives across calls.
// Value-span overloads keep the one-shot convenience API.
#pragma once

#include <span>

#include "core/column_kernels.hpp"
#include "core/detail.hpp"
#include "core/symbolic.hpp"
#include "util/prefix_sum.hpp"
#include "util/thread_control.hpp"

namespace spkadd::core {

namespace detail {

/// Allocate the result from per-column counts.
template <class IndexT, class ValueT>
CscMatrix<IndexT, ValueT> shell_from_counts(IndexT rows, IndexT cols,
                                            std::span<const IndexT> counts) {
  CscMatrix<IndexT, ValueT> out(rows, cols);
  out.set_structure(util::counts_to_offsets(counts));
  return out;
}

/// Shared driver prologue: pick the runtime, grow its thread pool, and make
/// sure the per-column costs exist when the schedule wants them.
template <class IndexT, class ValueT>
Runtime<IndexT, ValueT>& prepare_runtime(MatrixPtrs<IndexT, ValueT> inputs,
                                         const Options& opts, IndexT cols,
                                         Runtime<IndexT, ValueT>* rt,
                                         Runtime<IndexT, ValueT>& local) {
  Runtime<IndexT, ValueT>& R = rt ? *rt : local;
  R.ensure_threads(opts.threads > 0 ? opts.threads
                                    : util::current_max_threads());
  if (opts.schedule == Schedule::NnzBalanced &&
      R.col_costs.size() != static_cast<std::size_t>(cols))
    column_input_nnz(inputs, opts, R.col_costs);
  return R;
}

}  // namespace detail

/// Alg. 3 driver: k-way heap merge per column. Requires sorted inputs;
/// output always sorted.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_heap(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  const auto [rows, cols] = detail::check_conformant(inputs);
  if (!opts.inputs_sorted)
    throw std::invalid_argument("spkadd_heap: requires sorted inputs");
  detail::require_sorted_inputs(inputs, "spkadd_heap");

  Runtime<IndexT, ValueT> local;
  auto& R = detail::prepare_runtime(inputs, opts, cols, rt, local);
  const std::vector<IndexT> counts =
      symbolic_nnz_per_column(inputs, opts, /*sliding=*/false, &R);
  auto out = detail::shell_from_counts<IndexT, ValueT>(rows, cols, counts);
  auto* out_rows = out.mutable_row_idx().data();
  auto* out_vals = out.mutable_values().data();
  const auto cp = out.col_ptr();

  detail::for_each_column(cols, opts, R.costs_for(cols),
                          [&](IndexT j, OpCounters* c) {
    auto& s = R.scratch[static_cast<std::size_t>(omp_get_thread_num())];
    detail::gather_views(inputs, j, s.views, opts.skip_cols);
    const auto lo = static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
    heap_add_column(std::span<const ColumnView<IndexT, ValueT>>(s.views),
                    s.heap, out_rows + lo, out_vals + lo, c);
  });
  if (opts.counters)
    opts.counters->bytes_moved += detail::streamed_bytes<IndexT, ValueT>(
        detail::total_nnz(inputs), out.nnz());
  return out;
}

/// Alg. 4 driver: SPA accumulation. O(T*m) scratch memory — the documented
/// weakness the paper's Fig. 3 exposes at high thread counts.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_spa(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  const auto [rows, cols] = detail::check_conformant(inputs);
  Runtime<IndexT, ValueT> local;
  auto& R = detail::prepare_runtime(inputs, opts, cols, rt, local);
  const std::vector<IndexT> counts =
      symbolic_nnz_per_column(inputs, opts, /*sliding=*/false, &R);
  auto out = detail::shell_from_counts<IndexT, ValueT>(rows, cols, counts);
  auto* out_rows = out.mutable_row_idx().data();
  auto* out_vals = out.mutable_values().data();
  const auto cp = out.col_ptr();

  const bool sorted = opts.sorted_output;
  const IndexT rows_copy = rows;
  detail::for_each_column(cols, opts, R.costs_for(cols),
                          [&](IndexT j, OpCounters* c) {
    auto& s = R.scratch[static_cast<std::size_t>(omp_get_thread_num())];
    s.spa.ensure_rows(static_cast<std::size_t>(rows_copy));
    detail::gather_views(inputs, j, s.views, opts.skip_cols);
    const auto lo = static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
    spa_add_column(std::span<const ColumnView<IndexT, ValueT>>(s.views), s.spa,
                   out_rows + lo, out_vals + lo, sorted, c);
  });
  if (opts.counters)
    opts.counters->bytes_moved += detail::streamed_bytes<IndexT, ValueT>(
        detail::total_nnz(inputs), out.nnz());
  return out;
}

/// Alg. 5 driver: hash accumulation with per-column tables sized to
/// nnz(B(:,j)). Inputs may be unsorted; output sorted iff requested.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_hash(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  const auto [rows, cols] = detail::check_conformant(inputs);
  Runtime<IndexT, ValueT> local;
  auto& R = detail::prepare_runtime(inputs, opts, cols, rt, local);
  const std::vector<IndexT> counts =
      symbolic_nnz_per_column(inputs, opts, /*sliding=*/false, &R);
  auto out = detail::shell_from_counts<IndexT, ValueT>(rows, cols, counts);
  auto* out_rows = out.mutable_row_idx().data();
  auto* out_vals = out.mutable_values().data();
  const auto cp = out.col_ptr();

  const bool sorted = opts.sorted_output;
  detail::for_each_column(cols, opts, R.costs_for(cols),
                          [&](IndexT j, OpCounters* c) {
    auto& s = R.scratch[static_cast<std::size_t>(omp_get_thread_num())];
    detail::gather_views(inputs, j, s.views, opts.skip_cols);
    const auto lo = static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
    const auto expected = static_cast<std::size_t>(
        cp[static_cast<std::size_t>(j) + 1] - cp[static_cast<std::size_t>(j)]);
    hash_add_column(std::span<const ColumnView<IndexT, ValueT>>(s.views),
                    expected, s.table, out_rows + lo, out_vals + lo, sorted,
                    c);
  });
  if (opts.counters)
    opts.counters->bytes_moved += detail::streamed_bytes<IndexT, ValueT>(
        detail::total_nnz(inputs), out.nnz());
  return out;
}

/// Alg. 8 driver: sliding hash. Symbolic uses the sliding partition of
/// Alg. 7; the numeric phase re-partitions each column from its *output*
/// nnz via the shared sliding_hash_add_column kernel (tables are 2-3x
/// smaller than symbolic ones when cf > 1, the effect the paper highlights
/// for Eukarya). Row ranges are sliced by binary search on sorted inputs
/// and by filtering otherwise.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_sliding_hash(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  const auto [rows, cols] = detail::check_conformant(inputs);
  Runtime<IndexT, ValueT> local;
  auto& R = detail::prepare_runtime(inputs, opts, cols, rt, local);
  const std::vector<IndexT> counts =
      symbolic_nnz_per_column(inputs, opts, /*sliding=*/true, &R);
  auto out = detail::shell_from_counts<IndexT, ValueT>(rows, cols, counts);
  auto* out_rows = out.mutable_row_idx().data();
  auto* out_vals = out.mutable_values().data();
  const auto cp = out.col_ptr();

  const std::size_t cap =
      detail::table_entry_cap(opts, sizeof(IndexT) + sizeof(ValueT));
  const bool sorted = opts.sorted_output;
  const bool inputs_sorted = opts.inputs_sorted;
  const IndexT rows_copy = rows;
  detail::for_each_column(cols, opts, R.costs_for(cols),
                          [&](IndexT j, OpCounters* c) {
    auto& s = R.scratch[static_cast<std::size_t>(omp_get_thread_num())];
    detail::gather_views(inputs, j, s.views, opts.skip_cols);
    const auto onz = static_cast<std::size_t>(
        cp[static_cast<std::size_t>(j) + 1] - cp[static_cast<std::size_t>(j)]);
    const auto lo = static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
    sliding_hash_add_column(
        std::span<const ColumnView<IndexT, ValueT>>(s.views), onz, rows_copy,
        cap, inputs_sorted, sorted, s, out_rows + lo, out_vals + lo, c);
  });
  if (opts.counters)
    opts.counters->bytes_moved += detail::streamed_bytes<IndexT, ValueT>(
        detail::total_nnz(inputs), out.nnz());
  return out;
}

/// DenseAcc driver: dense bitmap accumulation per column. O(T*m) value
/// storage like the SPA, but the occupancy bitmap replaces generation
/// stamps and the touched list, and sorted emission is a word scan
/// (popcount/ctz) instead of a radix sort. Identity-dense addends fold
/// with whole-column SIMD adds. Inputs may be unsorted; output is always
/// emitted with ascending rows.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_denseacc(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  const auto [rows, cols] = detail::check_conformant(inputs);
  Runtime<IndexT, ValueT> local;
  auto& R = detail::prepare_runtime(inputs, opts, cols, rt, local);

  std::vector<IndexT> counts(static_cast<std::size_t>(cols), IndexT{0});
  const IndexT rows_copy = rows;
  detail::for_each_column(cols, opts, R.costs_for(cols),
                          [&](IndexT j, OpCounters* c) {
    auto& s = R.scratch[static_cast<std::size_t>(omp_get_thread_num())];
    detail::gather_views(inputs, j, s.views, opts.skip_cols);
    counts[static_cast<std::size_t>(j)] =
        static_cast<IndexT>(dense_symbolic_column(
            std::span<const ColumnView<IndexT, ValueT>>(s.views), rows_copy,
            s.dense, c));
  });
  auto out = detail::shell_from_counts<IndexT, ValueT>(rows, cols, counts);
  auto* out_rows = out.mutable_row_idx().data();
  auto* out_vals = out.mutable_values().data();
  const auto cp = out.col_ptr();

  detail::for_each_column(cols, opts, R.costs_for(cols),
                          [&](IndexT j, OpCounters* c) {
    auto& s = R.scratch[static_cast<std::size_t>(omp_get_thread_num())];
    detail::gather_views(inputs, j, s.views, opts.skip_cols);
    const auto lo = static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
    dense_add_column(std::span<const ColumnView<IndexT, ValueT>>(s.views),
                     rows_copy, s.dense, out_rows + lo, out_vals + lo, c);
  });
  if (opts.counters)
    opts.counters->bytes_moved += detail::streamed_bytes<IndexT, ValueT>(
        detail::total_nnz(inputs), out.nnz());
  return out;
}

/// Per-chunk planner driver behind Method::Auto and Method::Hybrid:
/// evaluate the Fig. 2 decision surface per nnz-balanced column chunk
/// instead of per call. The per-column input-nnz totals (reused from the
/// Runtime when already sized for these columns, scanned here otherwise)
/// are cut into cost-balanced chunks; each chunk is classified
/// (plan_hybrid) and both phases then run chunk-parallel, every chunk
/// under its own kernel through the uniform ColumnKernel interface. A
/// thread's ThreadScratch grows to the union of the kernels it actually
/// runs — nothing is pre-sized for kernels the plan never dispatches.
/// Bit-identical to every single-kernel column method: all kernels
/// accumulate equal-row values strictly left to right over the inputs.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_hybrid(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  const auto [rows, cols] = detail::check_conformant(inputs);
  Runtime<IndexT, ValueT> local;
  Runtime<IndexT, ValueT>& R = rt ? *rt : local;
  R.ensure_threads(opts.threads > 0 ? opts.threads
                                    : util::current_max_threads());
  // The plan feeds on the cost vector regardless of schedule; reuse the
  // caller's scan when it is already sized for these columns.
  if (R.col_costs.size() != static_cast<std::size_t>(cols))
    detail::column_input_nnz(inputs, opts, R.col_costs);

  HybridPlan<IndexT> plan;
  plan_hybrid<IndexT, ValueT>(
      std::span<const std::uint64_t>(R.col_costs), rows, inputs.size(), opts,
      plan);
  if (plan.uses(ColumnKernel::Heap))
    detail::require_sorted_inputs(inputs, "spkadd_hybrid");
  if (opts.counters)
    for (const ColumnKernel k : plan.kernels) count_chunk(*opts.counters, k);

  const std::vector<IndexT> counts =
      symbolic_nnz_per_column_hybrid(inputs, opts, plan, R);
  auto out = detail::shell_from_counts<IndexT, ValueT>(rows, cols, counts);
  auto* out_rows = out.mutable_row_idx().data();
  auto* out_vals = out.mutable_values().data();
  const auto cp = out.col_ptr();

  KernelEnv<IndexT> env;
  env.rows = rows;
  env.sym_cap = detail::table_entry_cap(opts, sizeof(IndexT));
  env.num_cap =
      detail::table_entry_cap(opts, sizeof(IndexT) + sizeof(ValueT));
  env.inputs_sorted = opts.inputs_sorted;
  env.sorted_output = opts.sorted_output;
  detail::for_each_chunk(
      std::span<const std::pair<IndexT, IndexT>>(plan.chunks), opts,
      [&](std::size_t ci, OpCounters* c) {
        auto& s =
            R.scratch[static_cast<std::size_t>(omp_get_thread_num())];
        const ColumnKernel kernel = plan.kernels[ci];
        for (IndexT j = plan.chunks[ci].first; j < plan.chunks[ci].second;
             ++j) {
          detail::gather_views(inputs, j, s.views, opts.skip_cols);
          const auto lo =
              static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
          const auto expected = static_cast<std::size_t>(
              cp[static_cast<std::size_t>(j) + 1] -
              cp[static_cast<std::size_t>(j)]);
          kernel_numeric_column(
              kernel, std::span<const ColumnView<IndexT, ValueT>>(s.views),
              expected, env, s, out_rows + lo, out_vals + lo, c);
        }
      });
  if (opts.counters)
    opts.counters->bytes_moved += detail::streamed_bytes<IndexT, ValueT>(
        detail::total_nnz(inputs), out.nnz());
  return out;
}

// Value-span convenience overloads: borrow the matrices and forward.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_heap(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  std::vector<const CscMatrix<IndexT, ValueT>*> ptrs;
  detail::borrow_all(inputs, ptrs);
  return spkadd_heap(MatrixPtrs<IndexT, ValueT>(ptrs), opts);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_spa(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  std::vector<const CscMatrix<IndexT, ValueT>*> ptrs;
  detail::borrow_all(inputs, ptrs);
  return spkadd_spa(MatrixPtrs<IndexT, ValueT>(ptrs), opts);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_hash(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  std::vector<const CscMatrix<IndexT, ValueT>*> ptrs;
  detail::borrow_all(inputs, ptrs);
  return spkadd_hash(MatrixPtrs<IndexT, ValueT>(ptrs), opts);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_sliding_hash(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  std::vector<const CscMatrix<IndexT, ValueT>*> ptrs;
  detail::borrow_all(inputs, ptrs);
  return spkadd_sliding_hash(MatrixPtrs<IndexT, ValueT>(ptrs), opts);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_denseacc(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  std::vector<const CscMatrix<IndexT, ValueT>*> ptrs;
  detail::borrow_all(inputs, ptrs);
  return spkadd_denseacc(MatrixPtrs<IndexT, ValueT>(ptrs), opts);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_hybrid(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  std::vector<const CscMatrix<IndexT, ValueT>*> ptrs;
  detail::borrow_all(inputs, ptrs);
  return spkadd_hybrid(MatrixPtrs<IndexT, ValueT>(ptrs), opts);
}

}  // namespace spkadd::core
