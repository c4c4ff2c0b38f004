// Unified SpKAdd entry point.
//
//   CscMatrix<> B = core::spkadd(inputs);                    // Auto policy
//   CscMatrix<> B = core::spkadd(inputs, {.method = Method::SlidingHash});
//
// The 2-way and reference methods fold pairwise; every other method runs
// the one column-kernel driver (kway_add in kway.hpp) with a plan.
// Method::Heap, Hash, SlidingHash and DenseAcc put their kernel on every
// column chunk. Method::Auto, the default, is the paper's Fig. 2 decision
// surface evaluated per nnz-balanced column chunk rather than once per
// call: a sorted pair of inputs takes the 2-way tree (Fig. 2's small-k
// corner), and every other call runs the per-chunk planner. Each chunk
// then runs the kernel its own heaviest column calls for, bit-identically
// to any single-kernel run.
#pragma once

#include <span>

#include "core/kway.hpp"
#include "core/options.hpp"
#include "core/reference_add.hpp"
#include "core/twoway.hpp"

namespace spkadd::core {

/// The method Method::Auto dispatches to for k addends: the 2-way tree
/// for a sorted pair (Fig. 2's small-k corner), otherwise Auto itself,
/// whose empty method_kernel runs the per-chunk planner. Needs no column
/// scan.
[[nodiscard]] inline Method auto_select(std::size_t k, const Options& opts) {
  return k <= 2 && opts.inputs_sorted ? Method::TwoWayTree : Method::Auto;
}

/// Value-span form of auto_select (tests/benches).
template <class IndexT, class ValueT>
[[nodiscard]] Method auto_select(
    std::span<const CscMatrix<IndexT, ValueT>> inputs, const Options& opts) {
  return auto_select(inputs.size(), opts);
}

/// Add a collection of borrowed conformant sparse matrices:
/// B = sum_i *inputs[i]. The primary entry point: a caller-owned Runtime
/// keeps the per-thread scratch and the per-column cost scan alive
/// across calls.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  detail::check_conformant(inputs);
  if (inputs.size() == 1) {
    CscMatrix<IndexT, ValueT> out = *inputs[0];
    if (opts.sorted_output && !out.is_sorted()) out.sort_columns();
    return out;
  }
  const Method method = opts.method == Method::Auto
                            ? auto_select(inputs.size(), opts)
                            : opts.method;
  switch (method) {
    case Method::TwoWayIncremental:
      return spkadd_twoway_incremental(inputs, opts);
    case Method::TwoWayTree:
      return spkadd_twoway_tree(inputs, opts);
    case Method::ReferenceIncremental:
      return spkadd_reference_incremental(inputs);
    case Method::ReferenceTree:
      return spkadd_reference_tree(inputs);
    default:  // a column kernel on every chunk, or the per-chunk planner
      break;
  }
  Runtime<IndexT, ValueT> local;
  return kway_add(inputs, opts, method_kernel(method), rt ? *rt : local);
}

/// Add a collection of conformant sparse matrices: B = sum_i inputs[i].
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  std::vector<const CscMatrix<IndexT, ValueT>*> ptrs;
  detail::borrow_all(inputs, ptrs);
  return spkadd(MatrixPtrs<IndexT, ValueT>(ptrs), opts);
}

/// Convenience overload for a vector of matrices.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd(
    const std::vector<CscMatrix<IndexT, ValueT>>& inputs,
    const Options& opts = {}) {
  return spkadd(std::span<const CscMatrix<IndexT, ValueT>>(inputs), opts);
}

}  // namespace spkadd::core
