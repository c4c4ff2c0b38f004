// Column plans and the symbolic phase of SpKAdd (paper §II-D, Alg. 6/7).
//
// Every k-way method runs over a ColumnPlan: column chunks, each with the
// ColumnKernel that fills it. Every call scans the per-column input-nnz
// totals and cuts them into cost-balanced chunks. A single-kernel method
// puts its kernel on every chunk; the per-chunk planner behind
// Method::Auto classifies each on the paper's Fig. 2 decision surface
// (plan_hybrid/hybrid_kernel_for).
//
// The symbolic phase computes nnz(B(:,j)) with a kernel's symbolic
// variant: the keys-only hash table of Alg. 6, or its sliding partition
// of Alg. 7 that keeps tables inside the last-level cache. kway_add runs
// it per column inside its one pass, for the hash kernels alone, to size
// their numeric tables. symbolic_nnz_per_column runs it over a whole
// plan, for the benches and tests that time the symbolic phase alone.
//
// plan_columns takes the caller's Runtime, whose per-column cost vector
// is reused across calls (kway_add passes its thread's).
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/column_kernels.hpp"
#include "core/detail.hpp"
#include "util/cache_info.hpp"

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
  // Factor 2: hash_table_entries allocates 2x the key count for its <= 0.5
  // load factor, so the memory per *key* is 2 * bytes_per_entry.
  const std::size_t cap =
      llc / (2 * bytes_per_entry *
             static_cast<std::size_t>(std::max(1, team_size(opts))));
  return std::max<std::size_t>(cap, 8);
}

/// The per-call constants of the column kernels.
template <class IndexT, class ValueT>
[[nodiscard]] KernelEnv<IndexT> kernel_env(const Options& opts,
                                           IndexT rows) {
  KernelEnv<IndexT> env;
  env.rows = rows;
  env.sym_cap = table_entry_cap(opts, sizeof(IndexT));
  env.num_cap = table_entry_cap(opts, sizeof(IndexT) + sizeof(ValueT));
  env.inputs_sorted = opts.inputs_sorted;
  env.sorted_output = opts.sorted_output;
  return env;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// The planner's classification (the Fig. 2 surface, evaluated per chunk)
// ---------------------------------------------------------------------------

/// Chunk thresholds of the per-chunk decision surface. The sliding/hash
/// boundary is the paper's cache-residency test and needs no tuning knob;
/// the heap pair covers the corner Fig. 2 draws at small k on sparse
/// columns (a k-way merge has no table to initialize or sort).
inline constexpr std::size_t kHybridHeapMaxK = 4;
inline constexpr std::uint64_t kHybridHeapMaxColNnz = 64;

/// Dense-chunk gate: a chunk goes to the bitmap accumulator when its
/// heaviest column's summed input nnz is at least rows / this divisor.
/// Fit from bench_hybrid on 65,536 rows at 1 and 4 threads (4-vCPU Xeon,
/// 2 MiB L2 per core) on the earlier DenseAcc kernel, whose emission swept
/// the touched bitmap span of every column: it beat hash by 4-50% on
/// uniform columns averaging 64 or more input nnz (1/1024 of the rows
/// and up) and lost by 8-90% at 32 and 16. Emission now visits only
/// occupied words, and DenseAcc is level with hash at 8 input nnz per
/// column at T=1; the constant stays until a sweep re-fits it.
inline constexpr std::uint64_t kHybridDenseMinFillDivisor = 1024;

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
/// whose numeric tables (all T threads') still fit the LLC: the paper's
/// b*T*max > M test, evaluated on the chunk's own maximum.
/// `dense_fit_rows` is the largest row count whose T dense accumulator
/// arrays (value plus mask bit per row) stay LLC-resident. Four rules,
/// checked in order:
///   1. dense chunks w/ resident arrays -> DenseAcc (bounded by rows, so
///      it absorbs the hub columns whose *input* nnz overflows the LLC)
///   2. tables overflow the cache      -> SlidingHash
///   3. tiny-k sorted sparse chunks    -> Heap
///   4. everything else                -> Hash
/// Empty chunks dispatch to Hash (a no-op kernel invocation).
template <class IndexT>
[[nodiscard]] ColumnKernel hybrid_kernel_for(std::uint64_t chunk_max_col_nnz,
                                             std::size_t k, IndexT rows,
                                             bool inputs_sorted,
                                             std::uint64_t llc_fit_nnz,
                                             std::uint64_t dense_fit_rows) {
  if (chunk_max_col_nnz == 0) return ColumnKernel::Hash;
  if (dense_chunk_eligible(chunk_max_col_nnz, rows, dense_fit_rows))
    return ColumnKernel::DenseAcc;
  if (chunk_max_col_nnz > llc_fit_nnz) return ColumnKernel::SlidingHash;
  if (inputs_sorted && k <= kHybridHeapMaxK &&
      chunk_max_col_nnz <= kHybridHeapMaxColNnz)
    return ColumnKernel::Heap;
  return ColumnKernel::Hash;
}

/// The execution plan of a column-kernel call: column ranges plus the
/// kernel that fills each. Built by plan_hybrid for a planned call and by
/// plan_columns for every call.
template <class IndexT>
struct ColumnPlan {
  std::vector<std::pair<IndexT, IndexT>> chunks;  ///< [first, second) cols
  std::vector<ColumnKernel> kernels;              ///< one per chunk

  [[nodiscard]] std::size_t size() const { return chunks.size(); }
  [[nodiscard]] bool uses(ColumnKernel k) const {
    for (const ColumnKernel c : kernels)
      if (c == k) return true;
    return false;
  }
};

/// Build the planner's plan from the per-column input-nnz totals the
/// call already computed: cut the columns into cost-balanced chunks, then
/// classify each chunk from its heaviest column on the hybrid_kernel_for
/// surface.
/// ValueT fixes the numeric table entry size of the cache-residency test.
template <class IndexT, class ValueT>
void plan_hybrid(std::span<const std::uint64_t> costs, IndexT rows,
                 std::size_t k, const Options& opts,
                 ColumnPlan<IndexT>& plan) {
  detail::balance_chunks(costs, detail::team_size(opts), plan.chunks);
  plan.kernels.clear();
  plan.kernels.reserve(plan.chunks.size());
  const std::size_t b = sizeof(IndexT) + sizeof(ValueT);
  const std::size_t llc =
      opts.llc_bytes != 0 ? opts.llc_bytes : util::effective_llc_bytes();
  const auto T = static_cast<std::size_t>(std::max(1, detail::team_size(opts)));
  // max fitting nnz: chunk_max > llc/(b*T)  <=>  b*T*chunk_max > llc.
  const std::uint64_t fit = llc / (b * T);
  // Dense-accumulator footprint per row: one ValueT plus one mask bit
  // (rounded up to a byte for the residency test).
  const std::uint64_t dense_fit = llc / ((sizeof(ValueT) + 1) * T);
  for (const auto& [c0, c1] : plan.chunks) {
    std::uint64_t mx = 0;
    for (IndexT j = c0; j < c1; ++j)
      mx = std::max(mx, costs[static_cast<std::size_t>(j)]);
    plan.kernels.push_back(hybrid_kernel_for(mx, k, rows, opts.inputs_sorted,
                                             fit, dense_fit));
  }
}

/// Plan one call: scan the per-column costs into R.col_costs, then the
/// planner's mix (plan_hybrid) when `kernel` is empty, otherwise
/// `*kernel` on every cost-balanced chunk.
template <class IndexT, class ValueT>
[[nodiscard]] ColumnPlan<IndexT> plan_columns(
    MatrixPtrs<IndexT, ValueT> inputs, std::optional<ColumnKernel> kernel,
    const Options& opts, Runtime<IndexT, ValueT>& R) {
  const IndexT rows = detail::check_conformant(inputs).first;
  ColumnPlan<IndexT> plan;
  detail::column_input_nnz(inputs, opts, R.col_costs);
  if (!kernel) {
    plan_hybrid<IndexT, ValueT>(R.col_costs, rows, inputs.size(), opts,
                                plan);
  } else {
    detail::balance_chunks(std::span<const std::uint64_t>(R.col_costs),
                           detail::team_size(opts), plan.chunks);
    plan.kernels.assign(plan.chunks.size(), *kernel);
  }
  return plan;
}

namespace detail {

/// Run chunk `ci` of `plan` on one thread's scratch: every column of it
/// with its views gathered into s.views, as body(KernelTag<kernel>, j,
/// views). The kernel switch runs once per chunk (with_kernel).
template <class IndexT, class ValueT, class Body>
void walk_chunk(MatrixPtrs<IndexT, ValueT> inputs,
                const ColumnPlan<IndexT>& plan, std::size_t ci,
                ThreadScratch<IndexT, ValueT>& s, Body&& body) {
  const auto [c0, c1] = plan.chunks[ci];
  with_kernel(plan.kernels[ci], [&](auto kernel) {
    for (IndexT j = c0; j < c1; ++j) {
      gather_views(inputs, j, s.views);
      body(kernel, j, std::span<const ColumnView<IndexT, ValueT>>(s.views));
    }
  });
}

}  // namespace detail

/// The symbolic phase alone (tests and benches that time it): nnz(B(:,j))
/// for every column, each counted with `kernel`'s symbolic variant, on
/// the calling thread's Runtime.
template <class IndexT, class ValueT>
std::vector<IndexT> symbolic_nnz_per_column(
    std::span<const CscMatrix<IndexT, ValueT>> inputs, const Options& opts,
    ColumnKernel kernel) {
  std::vector<const CscMatrix<IndexT, ValueT>*> ptrs;
  detail::borrow_all(inputs, ptrs);
  const MatrixPtrs<IndexT, ValueT> borrowed(ptrs);
  auto& R = thread_runtime<IndexT, ValueT>();
  const ColumnPlan<IndexT> plan = plan_columns(borrowed, kernel, opts, R);
  const auto [rows, cols] = detail::check_conformant(borrowed);
  std::vector<IndexT> counts(static_cast<std::size_t>(cols));
  const auto env = detail::kernel_env<IndexT, ValueT>(opts, rows);
  R.ensure_threads(detail::team_size(opts));
  detail::for_each_chunk(
      std::span<const std::pair<IndexT, IndexT>>(plan.chunks), opts,
      [&](std::size_t ci, OpCounters* c) {
        auto& s = R.scratch[static_cast<std::size_t>(omp_get_thread_num())];
        detail::walk_chunk(borrowed, plan, ci, s,
                           [&](auto k, IndexT j, auto views) {
                             counts[static_cast<std::size_t>(j)] =
                                 static_cast<IndexT>(kernel_symbolic_column(
                                     k, views, env, s, c));
                           });
      });
  return counts;
}

}  // namespace spkadd::core
