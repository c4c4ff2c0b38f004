// Unified SpKAdd entry point.
//
//   CscMatrix<> B = core::spkadd(inputs);                    // Auto policy
//   CscMatrix<> B = core::spkadd(inputs, {.method = Method::SlidingHash});
//
// Method::Auto implements the decision surface of the paper's Fig. 2:
// hash-family methods win everywhere at k >= 8; the only question is plain
// hash vs sliding hash, decided by whether all threads' numeric-phase hash
// tables fit in the last-level cache. For tiny k on skewed inputs the 2-way
// tree/heap corner of Fig. 2 is honored.
//
// Method::Hybrid evaluates the same surface PER nnz-balanced column chunk
// (spkadd_hybrid in kway.hpp): one dense hub column no longer drags every
// sparse column onto sliding hash — each chunk runs its own Fig. 2-optimal
// kernel, bit-identically to any single-kernel run.
//
// The Auto prescan (max per-column input nnz) runs as one parallel pass
// whose per-column totals land in the call's Runtime, where the symbolic
// phase and the nnz-balanced schedule reuse them — the scan is paid once
// per call, not once per consumer.
#pragma once

#include <span>

#include "core/kway.hpp"
#include "core/options.hpp"
#include "core/reference_add.hpp"
#include "core/twoway.hpp"
#include "util/cache_info.hpp"
#include "util/thread_control.hpp"

namespace spkadd::core {

/// The Fig. 2 cache-residency test on a precomputed heaviest-column input
/// nnz: b * T * max-column nnz > M. Output nnz is approximated by the
/// per-column *input* nnz upper bound (overestimates by at most the
/// compression factor, which only moves the boundary toward sliding hash —
/// the safe direction).
template <class IndexT, class ValueT>
[[nodiscard]] bool tables_overflow_llc(std::uint64_t max_col_nnz,
                                       const Options& opts) {
  const std::size_t b = sizeof(IndexT) + sizeof(ValueT);
  const int threads =
      opts.threads > 0 ? opts.threads : util::current_max_threads();
  const std::size_t llc =
      opts.llc_bytes != 0 ? opts.llc_bytes : util::effective_llc_bytes();
  return b * static_cast<std::size_t>(threads) *
             static_cast<std::size_t>(max_col_nnz) >
         llc;
}

/// Estimate whether the numeric-phase hash tables of all threads overflow
/// the LLC budget. The per-column scan runs in parallel (it used to be a
/// serial O(k*n) prepended to every Auto call).
template <class IndexT, class ValueT>
[[nodiscard]] bool auto_prefers_sliding(
    std::span<const CscMatrix<IndexT, ValueT>> inputs, const Options& opts) {
  return tables_overflow_llc<IndexT, ValueT>(
      detail::max_column_input_nnz(inputs, opts), opts);
}

/// Pick a concrete method for Method::Auto from a precomputed heaviest
/// column (internal fast path: the caller already owns the cost scan).
template <class IndexT, class ValueT>
[[nodiscard]] Method auto_select_from_max(std::size_t k, bool inputs_sorted,
                                          std::uint64_t max_col_nnz,
                                          const Options& opts) {
  if (k <= 2 && inputs_sorted) return Method::TwoWayTree;
  return tables_overflow_llc<IndexT, ValueT>(max_col_nnz, opts)
             ? Method::SlidingHash
             : Method::Hash;
}

/// Pick a concrete method for Method::Auto (exposed for tests/benches).
template <class IndexT, class ValueT>
[[nodiscard]] Method auto_select(
    std::span<const CscMatrix<IndexT, ValueT>> inputs, const Options& opts) {
  return auto_select_from_max<IndexT, ValueT>(
      inputs.size(), opts.inputs_sorted,
      detail::max_column_input_nnz(inputs, opts), opts);
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
  R.col_costs.clear();  // never let a previous call's totals leak downstream
  Method method = opts.method;
  // Fig. 2's 2-way corner needs no column scan; resolve it first so tiny-k
  // Auto calls (e.g. pairwise accumulator folds) stay O(1) in dispatch.
  if (method == Method::Auto && inputs.size() <= 2 && opts.inputs_sorted &&
      opts.skip_cols == nullptr)
    method = Method::TwoWayTree;
  // Only the column-loop drivers consume costs; TwoWay*/Reference* never
  // schedule by them, so skip the scan for those even under NnzBalanced.
  // Hybrid always needs the totals: its chunking AND per-chunk kernel
  // classification feed from them regardless of schedule.
  const bool kway_driver =
      method == Method::Auto || method == Method::Heap ||
      method == Method::Spa || method == Method::Hash ||
      method == Method::SlidingHash || method == Method::DenseAcc;
  const bool want_costs =
      (opts.schedule == Schedule::NnzBalanced && kway_driver) ||
      method == Method::Hybrid;
  if (method == Method::Auto || want_costs) {
    // One parallel scan: the per-column totals are kept only when the
    // balanced schedule (and through it the symbolic phase) will read
    // them; the Auto decision alone needs just the max. Always recomputed
    // here: a persistent Runtime may hold the previous call's totals.
    const std::uint64_t max_col_nnz =
        want_costs ? detail::column_input_nnz(inputs, opts, R.col_costs)
                   : detail::max_column_input_nnz(inputs, opts);
    if (method == Method::Auto) {
      method = auto_select_from_max<IndexT, ValueT>(
          inputs.size(), opts.inputs_sorted, max_col_nnz, opts);
      // Under a skip mask the 2-way corner is off-limits (pairwise folds
      // can't skip columns); hash is the nearest column-loop kernel.
      if (opts.skip_cols != nullptr && method == Method::TwoWayTree)
        method = Method::Hash;
    }
  }
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
      break;  // unreachable: resolved above
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
