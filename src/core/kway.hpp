// k-way SpKAdd (paper §II-C, §III): one driver for every column-kernel
// method, in one column-parallel pass.
//
// The paper's k-way algorithms count every output column (symbolic),
// scan the counts into the output col_ptr, allocate exactly, and then
// fill every column (numeric). Only the hash kernels need the count, to
// size their tables. kway_add makes one pass over a ColumnPlan
// (symbolic.hpp) instead:
//   * every chunk runs on one thread, each column with the chunk's
//     kernel (kernel_add_column: the hash kernels count the column
//     first, the heap merge and the dense accumulator count nothing);
//   * a finished chunk records its size, and the output offsets resolve
//     in chunk order as far as the recorded sizes allow, like the chained
//     offsets of a single-pass scan with decoupled look-back (Merrill and
//     Garland, 2016). A chunk whose offset is known when it starts (every
//     chunk of a team of one) is written in place. Any other is written
//     into a stash slot of its thread, which copies it into place, and
//     shifts its col_ptr slice, once its offset is known;
//   * a thread keeps at most one finished chunk waiting for its offset.
//     With a second one finished it yields until the older one's offset
//     resolves, so each thread's stash holds two slots, each sized for
//     the plan's largest chunk. Chunks still stashed at the loop's
//     closing barrier are placed after it. The call reserves the team's
//     stash once, unwritten, and frees it before it returns, so no
//     thread keeps a stash whose size follows the largest call.
// The output is reserved at the union bound, the total input nnz, and
// left unwritten, so placement writes every output entry exactly once.
// The result keeps that reservation unless it is more than twice the
// result (compression factor > 2); then it is shrunk to fit.
//
// kway_add takes borrowed matrix pointers (MatrixPtrs), so the streaming
// accumulator folds batches without copying an input, and runs on the
// calling thread's Runtime, whose scratch survives across calls.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/column_kernels.hpp"
#include "core/detail.hpp"
#include "core/symbolic.hpp"

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

namespace detail {

/// The output offsets of one kway_add call's chunks. A finished chunk
/// records its size under a short mutex, which resolves the offsets of
/// the chunks after it as far as the recorded sizes allow; known() reads
/// how far without the mutex.
class ChunkOffsets {
 public:
  explicit ChunkOffsets(std::size_t nchunks)
      : sizes_(nchunks, kUnrecorded), offsets_(nchunks + 1, 0) {}

  void record(std::size_t ci, std::size_t size) {
    const std::lock_guard<std::mutex> lock(mutex_);
    sizes_[ci] = size;
    std::size_t r = resolved_.load(std::memory_order_relaxed);
    for (; r < sizes_.size() && sizes_[r] != kUnrecorded; ++r)
      offsets_[r + 1] = offsets_[r] + sizes_[r];
    resolved_.store(r, std::memory_order_release);
  }

  /// True once every chunk before `ci` has recorded its size.
  [[nodiscard]] bool known(std::size_t ci) const {
    return ci <= resolved_.load(std::memory_order_acquire);
  }
  /// The output offset of chunk `ci`; requires known(ci).
  [[nodiscard]] std::size_t offset(std::size_t ci) const {
    return offsets_[ci];
  }
  /// Entries of all chunks; requires every chunk recorded.
  [[nodiscard]] std::size_t total() const { return offsets_.back(); }

 private:
  static constexpr std::size_t kUnrecorded = static_cast<std::size_t>(-1);
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> offsets_;
  std::atomic<std::size_t> resolved_{0};
  std::mutex mutex_;
};

/// Entries one stash slot must hold: the largest over the plan's chunks
/// of the sum of min(rows, column input nnz), a bound on every kernel's
/// output.
template <class IndexT>
[[nodiscard]] std::size_t stash_slot_entries(
    const ColumnPlan<IndexT>& plan, std::span<const std::uint64_t> costs,
    IndexT rows) {
  std::uint64_t slot = 0;
  for (const auto& [c0, c1] : plan.chunks) {
    std::uint64_t bound = 0;
    for (IndexT j = c0; j < c1; ++j)
      bound += std::min(costs[static_cast<std::size_t>(j)],
                        static_cast<std::uint64_t>(rows));
    slot = std::max(slot, bound);
  }
  return static_cast<std::size_t>(slot);
}

}  // namespace detail

/// Add the borrowed addends with `kernel` on every column chunk, or, when
/// `kernel` is empty, with the per-chunk planner's mix. Every kernel
/// accumulates equal-row values strictly left to right over the inputs,
/// so every plan gives the same bits for every sum without a NaN. A NaN
/// sum is a NaN under every plan, but its sign and payload may differ by
/// kernel: the compiler may swap the operands of `+`, x86 returns the
/// first operand's NaN, and DenseAcc's -0.0 slots quiet a signaling NaN.
/// The heap merge requires sorted input columns and throws without them.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> kway_add(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts,
    std::optional<ColumnKernel> kernel) {
  const auto [rows, cols] = detail::check_conformant(inputs);
  if (kernel == ColumnKernel::Heap && !opts.inputs_sorted)
    throw std::invalid_argument("spkadd(Heap): requires sorted inputs");
  auto& R = thread_runtime<IndexT, ValueT>();
  const ColumnPlan<IndexT> plan = plan_columns(inputs, kernel, opts, R);
  if (plan.uses(ColumnKernel::Heap))
    detail::require_sorted_inputs(inputs, "spkadd(Heap)");
  if (opts.counters && !kernel)
    for (const ColumnKernel k : plan.kernels) count_chunk(*opts.counters, k);

  // What the call keeps past its end, the team's dense arrays, and the
  // small bookkeeping of the pass come before the output: an allocation
  // that outlives the output's placement above it in the heap makes the
  // freed output a hole of exactly the output's size, which the next
  // call's output outgrows as soon as anything else takes a few bytes of
  // it.
  const int nthreads = detail::team_size(opts);
  R.ensure_threads(nthreads);
  if (plan.uses(ColumnKernel::DenseAcc))
    for (int t = 0; t < nthreads; ++t)
      R.scratch[static_cast<std::size_t>(t)].dense.reserve_rows(
          static_cast<std::size_t>(rows));
  // slots[t][i]: the chunk thread t holds in stash slot i, or kFree.
  struct Slot {
    std::size_t chunk;
    std::size_t size;
  };
  constexpr std::size_t kFree = static_cast<std::size_t>(-1);
  std::vector<std::array<Slot, 2>> slots(
      static_cast<std::size_t>(nthreads), {Slot{kFree, 0}, Slot{kFree, 0}});
  detail::ChunkOffsets offsets(plan.size());

  const std::size_t input_nnz = detail::total_nnz(inputs);
  std::vector<IndexT> col_ptr(static_cast<std::size_t>(cols) + 1, 0);
  CscArray<IndexT> row_idx(input_nnz);
  CscArray<ValueT> values(input_nnz);
  // The stash comes after the output: it is large and freed before the
  // call returns, so it merges back into the free top of the heap. A team
  // of one places every chunk straight away and needs none. Thread t's
  // stash slot i starts at entry (2t + i) * slot.
  const std::size_t slot =
      nthreads > 1 ? detail::stash_slot_entries(
                         plan, std::span<const std::uint64_t>(R.col_costs),
                         rows)
                   : 0;
  CscArray<IndexT> stash_rows(2 * slot * static_cast<std::size_t>(nthreads));
  CscArray<ValueT> stash_vals(stash_rows.size());
  const auto stash_at = [&](std::size_t t, std::size_t i) {
    return (2 * t + i) * slot;
  };
  // Copy the chunk in thread t's stash slot i into place, shift its
  // col_ptr slice by its offset, and free the slot.
  const auto place = [&](std::size_t t, std::size_t i) {
    Slot& slot_ti = slots[t][i];
    const std::size_t off = offsets.offset(slot_ti.chunk);
    std::copy_n(stash_rows.data() + stash_at(t, i), slot_ti.size,
                row_idx.data() + off);
    std::copy_n(stash_vals.data() + stash_at(t, i), slot_ti.size,
                values.data() + off);
    const auto [c0, c1] = plan.chunks[slot_ti.chunk];
    for (IndexT j = c0; j < c1; ++j)
      col_ptr[static_cast<std::size_t>(j) + 1] += static_cast<IndexT>(off);
    slot_ti.chunk = kFree;
  };

  const auto env = detail::kernel_env<IndexT, ValueT>(opts, rows);
  detail::for_each_chunk(
      std::span<const std::pair<IndexT, IndexT>>(plan.chunks), opts,
      [&](std::size_t ci, OpCounters* c) {
        const auto t = static_cast<std::size_t>(omp_get_thread_num());
        auto& s = R.scratch[t];
        auto& held = slots[t];
        // A chunk whose offset is already known is written in place.
        // Any other goes to a free stash slot: at most one chunk waits,
        // so one slot is free, and the other, if held, holds an older
        // chunk.
        const bool direct = offsets.known(ci);
        const std::size_t i = held[0].chunk == kFree ? 0 : 1;
        const std::size_t base = direct ? offsets.offset(ci) : 0;
        IndexT* out_rows = direct ? row_idx.data() + base
                                  : stash_rows.data() + stash_at(t, i);
        ValueT* out_vals = direct ? values.data() + base
                                  : stash_vals.data() + stash_at(t, i);
        std::size_t n = 0;
        detail::walk_chunk(inputs, plan, ci, s,
                           [&](auto k, IndexT j, auto views) {
                             n += kernel_add_column(k, views, env, s,
                                                    out_rows + n,
                                                    out_vals + n, c);
                             col_ptr[static_cast<std::size_t>(j) + 1] =
                                 static_cast<IndexT>(base + n);
                           });
        offsets.record(ci, n);
        if (!direct) {
          held[i] = Slot{ci, n};
          // Two chunks wait: wait for the older one's offset.
          if (held[1 - i].chunk != kFree)
            while (!offsets.known(held[1 - i].chunk))
              std::this_thread::yield();
        }
        for (std::size_t h = 0; h < 2; ++h)
          if (held[h].chunk != kFree && offsets.known(held[h].chunk))
            place(t, h);
      },
      [&] {
        const auto t = static_cast<std::size_t>(omp_get_thread_num());
        for (std::size_t h = 0; h < 2; ++h)
          if (slots[t][h].chunk != kFree) place(t, h);
      });

  const std::size_t total = offsets.total();
  row_idx.resize(total);
  values.resize(total);
  if (input_nnz > 2 * total) {
    row_idx.shrink_to_fit();
    values.shrink_to_fit();
  }
  if (opts.counters)
    opts.counters->bytes_moved +=
        detail::streamed_bytes<IndexT, ValueT>(input_nnz, total);
  R.level_scratch();
  return CscMatrix<IndexT, ValueT>(rows, cols, std::move(col_ptr),
                                   std::move(row_idx), std::move(values));
}

}  // namespace spkadd::core
