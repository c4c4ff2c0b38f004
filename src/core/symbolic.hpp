// Symbolic phase of SpKAdd (paper §II-D, Alg. 6 and Alg. 7).
//
// Every k-way algorithm needs nnz(B(:,j)) per output column to preallocate
// the result and size the hash tables. This module computes that vector with
// the hash-based symbolic kernel, optionally using the sliding partition of
// Alg. 7 so symbolic tables stay inside the last-level cache. The symbolic
// table stores keys only (b = sizeof(IndexT) bytes per entry).
//
// It is also where Method::Hybrid plans its per-chunk dispatch: the
// per-column input-nnz totals already computed for the Auto prescan and the
// nnz-balanced schedule are cut into cost-balanced column chunks and each
// chunk is classified on the paper's Fig. 2 decision surface
// (plan_hybrid/hybrid_kernel_for) — no new prescan. The hybrid symbolic
// pass then counts each chunk with its assigned kernel's symbolic variant.
//
// The primary entry points take borrowed matrix pointers plus an optional
// Runtime whose per-thread scratch and per-column cost vector are reused
// across calls (the streaming accumulator's workspace-persistence path).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/column_kernels.hpp"
#include "core/detail.hpp"
#include "util/cache_info.hpp"
#include "util/thread_control.hpp"

namespace spkadd::core {

namespace detail {

/// Per-thread hash-table entry budget from the LLC size: M / (b * T)
/// (Alg. 7 line 3 rearranged), optionally overridden by
/// Options::max_table_entries. Never below a small floor so degenerate
/// configurations stay functional.
inline std::size_t table_entry_cap(const Options& opts,
                                   std::size_t bytes_per_entry) {
  if (opts.max_table_entries != 0)
    return std::max<std::size_t>(opts.max_table_entries, 8);
  const std::size_t llc =
      opts.llc_bytes != 0 ? opts.llc_bytes : util::effective_llc_bytes();
  const int threads =
      opts.threads > 0 ? opts.threads : util::current_max_threads();
  // Factor 2: hash_table_entries allocates 2x the key count for its <= 0.5
  // load factor, so the memory per *key* is 2 * bytes_per_entry.
  const std::size_t cap =
      llc / (2 * bytes_per_entry *
             static_cast<std::size_t>(std::max(1, threads)));
  return std::max<std::size_t>(cap, 8);
}

}  // namespace detail

/// Compute nnz(B(:,j)) for every column of the borrowed addends. `sliding`
/// selects Alg. 7 (cache-capped tables) vs plain Alg. 6. When `rt` is
/// given, its thread scratch is reused (only grown, never re-allocated per
/// call) and its per-column cost vector — if already computed for these
/// inputs — drives the nnz-balanced schedule and skips empty columns.
template <class IndexT, class ValueT>
std::vector<IndexT> symbolic_nnz_per_column(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts, bool sliding,
    Runtime<IndexT, ValueT>* rt = nullptr) {
  const auto [rows, cols] = detail::check_conformant(inputs);
  std::vector<IndexT> counts(static_cast<std::size_t>(cols));
  const std::size_t cap =
      sliding ? detail::table_entry_cap(opts, sizeof(IndexT)) : 0;

  Runtime<IndexT, ValueT> local;
  Runtime<IndexT, ValueT>& R = rt ? *rt : local;
  R.ensure_threads(opts.threads > 0 ? opts.threads
                                    : util::current_max_threads());
  // Costs steer the chunk schedule only — never skip work from them: a
  // persistent Runtime may carry the previous fold's totals.
  const auto costs = R.costs_for(cols);
  const IndexT rows_copy = rows;
  detail::for_each_column(cols, opts, costs, [&](IndexT j, OpCounters* c) {
    auto& s = R.scratch[static_cast<std::size_t>(omp_get_thread_num())];
    detail::gather_views(inputs, j, s.views, opts.skip_cols);
    const std::span<const ColumnView<IndexT, ValueT>> views(s.views);
    const std::size_t nz =
        sliding ? sliding_symbolic_column(views, rows_copy, cap,
                                          opts.inputs_sorted, s, c)
                : hash_symbolic_column(views, s.sym_table, c);
    counts[static_cast<std::size_t>(j)] = static_cast<IndexT>(nz);
  });
  return counts;
}

/// Value-span convenience overload (tests/benches): borrows the matrices
/// and forwards.
template <class IndexT, class ValueT>
std::vector<IndexT> symbolic_nnz_per_column(
    std::span<const CscMatrix<IndexT, ValueT>> inputs, const Options& opts,
    bool sliding) {
  std::vector<const CscMatrix<IndexT, ValueT>*> ptrs;
  detail::borrow_all(inputs, ptrs);
  return symbolic_nnz_per_column(MatrixPtrs<IndexT, ValueT>(ptrs), opts,
                                 sliding);
}

// ---------------------------------------------------------------------------
// Hybrid per-chunk classification (the Fig. 2 surface, evaluated per chunk)
// ---------------------------------------------------------------------------

/// Chunk thresholds of the per-chunk decision surface. The sliding/hash
/// boundary is the paper's cache-residency test and needs no tuning knob;
/// the heap pair covers the corner Fig. 2 draws at small k on sparse
/// columns (a k-way merge has no table to initialize or sort).
inline constexpr std::size_t kHybridHeapMaxK = 4;
inline constexpr std::uint64_t kHybridHeapMaxColNnz = 64;

/// Dense-chunk gate: a chunk is dense enough for the bitmap accumulator
/// when its heaviest column's summed input nnz is at least rows / this
/// divisor — enough scatter work to amortize the O(rows/64) bitmap sweep
/// and beat the SPA's radix sort.
inline constexpr std::uint64_t kHybridDenseMinFillDivisor = 8;

/// The dense eligibility test of the per-chunk surface: the chunk must
/// be dense enough (see kHybridDenseMinFillDivisor) and the T per-thread
/// dense arrays (value + mask bit per row) must stay LLC-resident.
template <class IndexT>
[[nodiscard]] inline bool dense_chunk_eligible(
    std::uint64_t chunk_max_col_nnz, IndexT rows,
    std::uint64_t dense_fit_rows) {
  return rows > 0 &&
         static_cast<std::uint64_t>(rows) <= dense_fit_rows &&
         chunk_max_col_nnz * kHybridDenseMinFillDivisor >=
             static_cast<std::uint64_t>(rows);
}

/// Classify one nnz-balanced column chunk from its heaviest column's
/// summed input nnz. `llc_fit_nnz` is the largest per-column input nnz
/// whose numeric tables (all T threads') still fit the LLC — the same
/// surface as the whole-matrix Auto test b*T*max > M, just evaluated on
/// the chunk's own maximum instead of the global one. `spa_fit_rows` is
/// the largest row count whose T dense SPA arrays (value + generation
/// stamp per row) stay LLC-resident — the Fig. 3 effect: SPA's direct
/// indexing beats hashing (no probes, no per-column table init) right up
/// until its O(T*m) scratch falls out of cache, which is exactly where
/// the paper's large-m multithreaded runs see it collapse.
/// `dense_fit_rows` is the same test for the dense accumulator's
/// value-plus-mask-bit per-row footprint.
///   1. dense chunks w/ resident arrays -> DenseAcc (bounded by rows, so
///      it absorbs the hub columns whose *input* nnz overflows the LLC)
///   2. tables overflow the cache      -> SlidingHash
///   3. tiny-k sorted sparse chunks    -> Heap
///   4. SPA arrays stay cache-resident -> Spa
///   5. everything else                -> Hash
/// Empty chunks dispatch to Hash (a no-op kernel invocation).
template <class IndexT>
[[nodiscard]] ColumnKernel hybrid_kernel_for(std::uint64_t chunk_max_col_nnz,
                                             std::size_t k, IndexT rows,
                                             bool inputs_sorted,
                                             std::uint64_t llc_fit_nnz,
                                             std::uint64_t spa_fit_rows,
                                             std::uint64_t dense_fit_rows) {
  if (chunk_max_col_nnz == 0) return ColumnKernel::Hash;
  if (dense_chunk_eligible(chunk_max_col_nnz, rows, dense_fit_rows))
    return ColumnKernel::DenseAcc;
  if (chunk_max_col_nnz > llc_fit_nnz) return ColumnKernel::SlidingHash;
  if (inputs_sorted && k <= kHybridHeapMaxK &&
      chunk_max_col_nnz <= kHybridHeapMaxColNnz)
    return ColumnKernel::Heap;
  if (rows > 0 && static_cast<std::uint64_t>(rows) <= spa_fit_rows)
    return ColumnKernel::Spa;
  return ColumnKernel::Hash;
}

/// The per-chunk execution plan of Method::Hybrid: nnz-balanced column
/// ranges plus the kernel classified for each.
template <class IndexT>
struct HybridPlan {
  std::vector<std::pair<IndexT, IndexT>> chunks;  ///< [first, second) cols
  std::vector<ColumnKernel> kernels;              ///< one per chunk

  [[nodiscard]] std::size_t size() const { return chunks.size(); }
  [[nodiscard]] bool uses(ColumnKernel k) const {
    for (const ColumnKernel c : kernels)
      if (c == k) return true;
    return false;
  }
};

/// Build the hybrid plan from the per-column input-nnz totals the call
/// already computed (the Auto-prescan/NnzBalanced cost vector — no new
/// scan): cut the columns into cost-balanced chunks, then classify each
/// chunk from its heaviest column on the hybrid_kernel_for surface.
/// ValueT fixes the numeric table entry size of the cache-residency test.
template <class IndexT, class ValueT>
void plan_hybrid(std::span<const std::uint64_t> costs, IndexT rows,
                 std::size_t k, const Options& opts,
                 HybridPlan<IndexT>& plan) {
  const int threads =
      opts.threads > 0 ? opts.threads : util::current_max_threads();
  detail::balance_chunks(costs, threads, plan.chunks);
  plan.kernels.clear();
  plan.kernels.reserve(plan.chunks.size());
  const std::size_t b = sizeof(IndexT) + sizeof(ValueT);
  const std::size_t llc =
      opts.llc_bytes != 0 ? opts.llc_bytes : util::effective_llc_bytes();
  const auto T = static_cast<std::size_t>(std::max(1, threads));
  // max fitting nnz: chunk_max > llc/(b*T)  <=>  b*T*chunk_max > llc.
  const std::uint64_t fit = llc / (b * T);
  // SPA footprint per row: one ValueT plus one generation stamp.
  const std::uint64_t spa_fit =
      llc / ((sizeof(ValueT) + sizeof(std::uint32_t)) * T);
  // Dense-accumulator footprint per row: one ValueT plus one mask bit
  // (rounded up to a byte for the residency test).
  const std::uint64_t dense_fit = llc / ((sizeof(ValueT) + 1) * T);
  for (const auto& [c0, c1] : plan.chunks) {
    std::uint64_t mx = 0;
    for (IndexT j = c0; j < c1; ++j)
      mx = std::max(mx, costs[static_cast<std::size_t>(j)]);
    plan.kernels.push_back(hybrid_kernel_for(mx, k, rows, opts.inputs_sorted,
                                             fit, spa_fit, dense_fit));
  }
}

/// Hybrid symbolic phase: count every column with its chunk's kernel
/// (sliding symbolic on sliding chunks, plain hash symbolic elsewhere).
/// Chunks are the parallel work unit, drained dynamically — they are
/// already cost-balanced, so this is the NnzBalanced schedule by
/// construction.
template <class IndexT, class ValueT>
std::vector<IndexT> symbolic_nnz_per_column_hybrid(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts,
    const HybridPlan<IndexT>& plan, Runtime<IndexT, ValueT>& R) {
  const auto [rows, cols] = detail::check_conformant(inputs);
  std::vector<IndexT> counts(static_cast<std::size_t>(cols));
  R.ensure_threads(opts.threads > 0 ? opts.threads
                                    : util::current_max_threads());
  KernelEnv<IndexT> env;
  env.rows = rows;
  env.sym_cap = detail::table_entry_cap(opts, sizeof(IndexT));
  env.inputs_sorted = opts.inputs_sorted;
  detail::for_each_chunk(
      std::span<const std::pair<IndexT, IndexT>>(plan.chunks), opts,
      [&](std::size_t ci, OpCounters* c) {
        auto& s =
            R.scratch[static_cast<std::size_t>(omp_get_thread_num())];
        const ColumnKernel kernel = plan.kernels[ci];
        for (IndexT j = plan.chunks[ci].first; j < plan.chunks[ci].second;
             ++j) {
          detail::gather_views(inputs, j, s.views, opts.skip_cols);
          counts[static_cast<std::size_t>(j)] = static_cast<IndexT>(
              kernel_symbolic_column(
                  kernel,
                  std::span<const ColumnView<IndexT, ValueT>>(s.views), env,
                  s, c));
        }
      });
  return counts;
}

}  // namespace spkadd::core
