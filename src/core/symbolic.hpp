// Column plans and the symbolic phase of SpKAdd (paper §II-D, Alg. 6/7).
//
// Every k-way method runs over a ColumnPlan: column chunks, each with the
// ColumnKernel that fills it. A single-kernel method puts its kernel on
// every chunk the chunk cutter makes for Options::schedule. The per-chunk
// planner behind Method::Auto cuts the per-column input-nnz totals into
// cost-balanced chunks and classifies each on the paper's Fig. 2 decision
// surface (plan_hybrid/hybrid_kernel_for).
//
// The symbolic pass walks a plan and computes nnz(B(:,j)) per output
// column, each chunk with its kernel's symbolic variant: the keys-only
// hash table of Alg. 6, its sliding partition of Alg. 7 that keeps
// tables inside the last-level cache, or the dense occupancy bitmap. The
// count preallocates the result and sizes the numeric hash tables.
//
// A plan also carries the caller's optional column skip mask: a masked
// column costs nothing in the scan, gathers no views and comes out empty
// (the streaming Accumulator masks its dense-resident columns this way).
//
// The primary entry points take borrowed matrix pointers plus a Runtime
// whose per-thread scratch and per-column cost vector are reused across
// calls (the streaming accumulator's workspace-persistence path).
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
/// kernel that fills each, and the caller's skip mask. Built by
/// plan_hybrid for a planned call and by plan_columns for every call.
template <class IndexT>
struct ColumnPlan {
  std::vector<std::pair<IndexT, IndexT>> chunks;  ///< [first, second) cols
  std::vector<ColumnKernel> kernels;              ///< one per chunk
  /// One byte per column, nonzero = gather no views (the output column
  /// stays empty); empty = no mask. Borrowed from the caller of kway_add.
  std::span<const std::uint8_t> skip;

  [[nodiscard]] std::size_t size() const { return chunks.size(); }
  [[nodiscard]] bool uses(ColumnKernel k) const {
    for (const ColumnKernel c : kernels)
      if (c == k) return true;
    return false;
  }
};

/// Build the planner's plan from the per-column input-nnz totals the
/// call already computed (the cost vector the NnzBalanced schedule also
/// reads — no new scan): cut the columns into cost-balanced chunks, then
/// classify each chunk from its heaviest column on the hybrid_kernel_for
/// surface.
/// ValueT fixes the numeric table entry size of the cache-residency test.
template <class IndexT, class ValueT>
void plan_hybrid(std::span<const std::uint64_t> costs, IndexT rows,
                 std::size_t k, const Options& opts,
                 ColumnPlan<IndexT>& plan) {
  detail::cut_chunks(static_cast<IndexT>(costs.size()), costs, opts,
                     plan.chunks);
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

/// Plan one call: the planner's mix (plan_hybrid) when `kernel` is
/// empty, otherwise `*kernel` on every chunk of the schedule's cut. The
/// per-column cost scan runs into R only when the cut needs it: for a
/// planned call, or under Schedule::NnzBalanced. Columns `skip` masks
/// cost nothing and are left empty by every walk of the plan.
template <class IndexT, class ValueT>
[[nodiscard]] ColumnPlan<IndexT> plan_columns(
    MatrixPtrs<IndexT, ValueT> inputs, std::optional<ColumnKernel> kernel,
    const Options& opts, Runtime<IndexT, ValueT>& R,
    std::span<const std::uint8_t> skip = {}) {
  const auto [rows, cols] = detail::check_conformant(inputs);
  std::span<const std::uint64_t> costs;
  if (!kernel || opts.schedule == Schedule::NnzBalanced) {
    detail::column_input_nnz(inputs, opts, R.col_costs, skip);
    costs = R.col_costs;
  }
  ColumnPlan<IndexT> plan;
  plan.skip = skip;
  if (!kernel) {
    plan_hybrid<IndexT, ValueT>(costs, rows, inputs.size(), opts, plan);
  } else {
    detail::cut_chunks(cols, costs, opts, plan.chunks);
    plan.kernels.assign(plan.chunks.size(), *kernel);
  }
  return plan;
}

namespace detail {

/// Walk a plan in parallel: every chunk on one thread, every column of it
/// with its views gathered (none for a column the plan's skip mask marks),
/// as body(KernelTag<kernel>, j, views, thread scratch, counters). The
/// kernel switch runs once per chunk (with_kernel). R's thread scratch is
/// reused: only grown, never re-allocated per call.
template <class IndexT, class ValueT, class Body>
void walk_plan(MatrixPtrs<IndexT, ValueT> inputs,
               const ColumnPlan<IndexT>& plan, const Options& opts,
               Runtime<IndexT, ValueT>& R, Body&& body) {
  R.ensure_threads(team_size(opts));
  for_each_chunk(
      std::span<const std::pair<IndexT, IndexT>>(plan.chunks), opts,
      [&](std::size_t ci, OpCounters* c) {
        auto& s = R.scratch[static_cast<std::size_t>(omp_get_thread_num())];
        const auto [c0, c1] = plan.chunks[ci];
        with_kernel(plan.kernels[ci], [&](auto kernel) {
          for (IndexT j = c0; j < c1; ++j) {
            gather_views(inputs, j, s.views, plan.skip);
            body(kernel, j,
                 std::span<const ColumnView<IndexT, ValueT>>(s.views), s, c);
          }
        });
      });
}

}  // namespace detail

/// The symbolic pass: nnz(B(:,j)) for every column, each chunk of `plan`
/// counted with its kernel's symbolic variant.
template <class IndexT, class ValueT>
std::vector<IndexT> symbolic_nnz_per_column(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts,
    const ColumnPlan<IndexT>& plan, Runtime<IndexT, ValueT>& R) {
  const auto [rows, cols] = detail::check_conformant(inputs);
  std::vector<IndexT> counts(static_cast<std::size_t>(cols));
  const auto env = detail::kernel_env<IndexT, ValueT>(opts, rows);
  detail::walk_plan(inputs, plan, opts, R,
                    [&](auto kernel, IndexT j, auto views, auto& s,
                        OpCounters* c) {
                      counts[static_cast<std::size_t>(j)] =
                          static_cast<IndexT>(kernel_symbolic_column(
                              kernel, views, env, s, c));
                    });
  return counts;
}

/// Value-span form (tests/benches that time the symbolic phase alone):
/// count every column with `kernel` under the schedule's cut.
template <class IndexT, class ValueT>
std::vector<IndexT> symbolic_nnz_per_column(
    std::span<const CscMatrix<IndexT, ValueT>> inputs, const Options& opts,
    ColumnKernel kernel) {
  std::vector<const CscMatrix<IndexT, ValueT>*> ptrs;
  detail::borrow_all(inputs, ptrs);
  const MatrixPtrs<IndexT, ValueT> borrowed(ptrs);
  Runtime<IndexT, ValueT> R;
  return symbolic_nnz_per_column(
      borrowed, opts, plan_columns(borrowed, kernel, opts, R), R);
}

}  // namespace spkadd::core
