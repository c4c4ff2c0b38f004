// k-way SpKAdd (paper §II-C, §III): one driver for every column-kernel
// method.
//
// The paper's k-way algorithms share one two-phase shape:
//   1. symbolic — nnz(B(:,j)) per column, exclusive scan into the output
//      col_ptr, exact allocation;
//   2. numeric — fill every output column in parallel with a column
//      kernel on thread-private scratch.
// The loop is synchronization-free because output slices are disjoint.
// kway_add runs both phases over a ColumnPlan (symbolic.hpp): a
// single-kernel method (Heap, Hash, SlidingHash, DenseAcc) puts its
// kernel on every chunk of the schedule's cut, and the planner behind
// Method::Auto picks a kernel per nnz-balanced chunk. Both phases walk
// the plan's chunks through the uniform ColumnKernel interface.
//
// kway_add takes borrowed matrix pointers (MatrixPtrs) plus a Runtime: the
// streaming accumulator folds batches without copying an input and with
// scratch that survives across calls. An optional column skip mask leaves
// the masked output columns empty; the Accumulator passes its
// dense-resident columns, which it folds itself.
#pragma once

#include <optional>
#include <span>
#include <stdexcept>

#include "core/column_kernels.hpp"
#include "core/detail.hpp"
#include "core/symbolic.hpp"
#include "util/prefix_sum.hpp"

namespace spkadd::core {

/// The kernel a k-way method puts on every column chunk; empty for
/// Auto, whose chunks the planner fills. The pairwise methods
/// (is_pairwise) run no column kernel.
[[nodiscard]] inline std::optional<ColumnKernel> method_kernel(Method m) {
  switch (m) {
    case Method::Heap: return ColumnKernel::Heap;
    case Method::Hash: return ColumnKernel::Hash;
    case Method::SlidingHash: return ColumnKernel::SlidingHash;
    case Method::DenseAcc: return ColumnKernel::DenseAcc;
    default: return std::nullopt;
  }
}

/// Add the borrowed addends with `kernel` on every column chunk, or, when
/// `kernel` is empty, with the per-chunk planner's mix. Every kernel
/// accumulates equal-row values strictly left to right over the inputs,
/// so every plan gives the same bits for every sum without a NaN. A NaN
/// sum is a NaN under every plan, but its sign and payload may differ by
/// kernel: the compiler may swap the operands of `+`, x86 returns the
/// first operand's NaN, and DenseAcc's -0.0 slots quiet a signaling NaN.
/// The heap merge requires sorted
/// input columns and throws without them. `skip`, when not empty, holds
/// one byte per column; a nonzero byte leaves that output column empty.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> kway_add(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts,
    std::optional<ColumnKernel> kernel, Runtime<IndexT, ValueT>& R,
    std::span<const std::uint8_t> skip = {}) {
  const auto [rows, cols] = detail::check_conformant(inputs);
  if (!skip.empty() && skip.size() != static_cast<std::size_t>(cols))
    throw std::invalid_argument("kway_add: skip needs one byte per column");
  if (kernel == ColumnKernel::Heap && !opts.inputs_sorted)
    throw std::invalid_argument("spkadd(Heap): requires sorted inputs");
  const ColumnPlan<IndexT> plan = plan_columns(inputs, kernel, opts, R, skip);
  if (plan.uses(ColumnKernel::Heap))
    detail::require_sorted_inputs(inputs, "spkadd(Heap)");
  if (opts.counters && !kernel)
    for (const ColumnKernel k : plan.kernels) count_chunk(*opts.counters, k);

  const std::vector<IndexT> counts =
      symbolic_nnz_per_column(inputs, opts, plan, R);
  CscMatrix<IndexT, ValueT> out(rows, cols);
  out.set_structure(util::counts_to_offsets(std::span<const IndexT>(counts),
                                            detail::team_size(opts)));
  auto* out_rows = out.mutable_row_idx().data();
  auto* out_vals = out.mutable_values().data();
  const auto cp = out.col_ptr();

  const auto env = detail::kernel_env<IndexT, ValueT>(opts, rows);
  detail::walk_plan(
      inputs, plan, opts, R,
      [&](auto k, IndexT j, auto views, auto& s, OpCounters* c) {
        const auto col = static_cast<std::size_t>(j);
        const auto lo = static_cast<std::size_t>(cp[col]);
        const auto nz = static_cast<std::size_t>(cp[col + 1]) - lo;
        kernel_numeric_column(k, views, nz, env, s, out_rows + lo,
                              out_vals + lo, c);
      });
  if (opts.counters)
    opts.counters->bytes_moved += detail::streamed_bytes<IndexT, ValueT>(
        detail::total_nnz(inputs), out.nnz());
  return out;
}

}  // namespace spkadd::core
