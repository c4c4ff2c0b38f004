// Unified SpKAdd entry point.
//
//   CscMatrix<> B = core::spkadd(inputs);                    // Auto policy
//   CscMatrix<> B = core::spkadd(inputs, {.method = Method::SlidingHash});
//
// Method::Auto, the default, is the paper's Fig. 2 decision surface
// evaluated per nnz-balanced column chunk rather than once per call: a
// sorted pair of inputs takes the 2-way tree (Fig. 2's small-k corner),
// and every other call runs the per-chunk planner of Method::Hybrid
// (spkadd_hybrid in kway.hpp). Each chunk then runs the kernel its own
// heaviest column calls for, bit-identically to any single-kernel run.
#pragma once

#include <span>

#include "core/kway.hpp"
#include "core/options.hpp"
#include "core/reference_add.hpp"
#include "core/twoway.hpp"

namespace spkadd::core {

/// The method Method::Auto dispatches to for k addends: the 2-way tree
/// for a sorted pair, the per-chunk planner otherwise. Pairwise folds
/// cannot honor a skip mask, so a masked call always plans per chunk.
/// Needs no column scan.
[[nodiscard]] inline Method auto_select(std::size_t k, const Options& opts) {
  return k <= 2 && opts.inputs_sorted && opts.skip_cols == nullptr
             ? Method::TwoWayTree
             : Method::Hybrid;
}

/// Value-span form of auto_select (tests/benches).
template <class IndexT, class ValueT>
[[nodiscard]] Method auto_select(
    std::span<const CscMatrix<IndexT, ValueT>> inputs, const Options& opts) {
  return auto_select(inputs.size(), opts);
}

/// Add a collection of borrowed conformant sparse matrices:
/// B = sum_i *inputs[i]. The primary entry point: streaming callers (the
/// Accumulator) fold through here without copying an input, and a
/// caller-owned Runtime keeps the per-thread scratch and the per-column
/// cost scan alive across calls.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  detail::check_conformant(inputs);
  if (opts.skip_cols != nullptr &&
      (opts.method == Method::TwoWayIncremental ||
       opts.method == Method::TwoWayTree ||
       opts.method == Method::ReferenceIncremental ||
       opts.method == Method::ReferenceTree))
    throw std::invalid_argument(
        "spkadd: skip_cols requires a column-kernel method");
  // A skip mask must reach a column-loop driver: the whole-matrix copy
  // shortcut and the pairwise folds cannot honor it.
  if (inputs.size() == 1 && opts.skip_cols == nullptr) {
    CscMatrix<IndexT, ValueT> out = *inputs[0];
    if (opts.sorted_output && !out.is_sorted()) out.sort_columns();
    return out;
  }
  Runtime<IndexT, ValueT> local;
  Runtime<IndexT, ValueT>& R = rt ? *rt : local;
  // Never let a previous call's totals leak downstream: each driver
  // rescans the per-column costs it needs into R.
  R.col_costs.clear();
  const Method method = opts.method == Method::Auto
                            ? auto_select(inputs.size(), opts)
                            : opts.method;
  switch (method) {
    case Method::TwoWayIncremental:
      return spkadd_twoway_incremental(inputs, opts);
    case Method::TwoWayTree:
      return spkadd_twoway_tree(inputs, opts);
    case Method::Heap:
      return spkadd_heap(inputs, opts, &R);
    case Method::Spa:
      return spkadd_spa(inputs, opts, &R);
    case Method::Hash:
      return spkadd_hash(inputs, opts, &R);
    case Method::SlidingHash:
      return spkadd_sliding_hash(inputs, opts, &R);
    case Method::DenseAcc:
      return spkadd_denseacc(inputs, opts, &R);
    case Method::Hybrid:
      return spkadd_hybrid(inputs, opts, &R);
    case Method::ReferenceIncremental:
      return spkadd_reference_incremental(inputs);
    case Method::ReferenceTree:
      return spkadd_reference_tree(inputs);
    case Method::Auto:
      break;  // unreachable: resolved by auto_select
  }
  throw std::logic_error("spkadd: unresolved method");
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
