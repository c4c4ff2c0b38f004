// Shared plumbing for the SpKAdd drivers: input checking, the column-
// parallel loop with per-thread counter reduction, view gathering, and the
// per-column cost scan feeding the per-chunk plan and nnz-balanced schedule.
//
// The drivers' primary signatures take *pointer* spans
// (span<const CscMatrix* const>) so callers that stream or batch addends —
// the Accumulator — can fold borrowed matrices without deep copies. The
// helpers here are generic over both span flavors via deref().
#pragma once

#include "util/omp_compat.hpp"

#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "matrix/csc.hpp"
#include "matrix/validate.hpp"

namespace spkadd::core {

/// Non-owning collection of conformant addends: the primary input type of
/// the core drivers. Batches and streamed addends are spans of borrowed
/// pointers, never copies.
template <class IndexT, class ValueT>
using MatrixPtrs = std::span<const CscMatrix<IndexT, ValueT>* const>;

namespace detail {

/// Uniform access for span<const CscMatrix> and span<const CscMatrix* const>
/// elements.
template <class IndexT, class ValueT>
[[nodiscard]] inline const CscMatrix<IndexT, ValueT>& deref(
    const CscMatrix<IndexT, ValueT>& m) {
  return m;
}
template <class IndexT, class ValueT>
[[nodiscard]] inline const CscMatrix<IndexT, ValueT>& deref(
    const CscMatrix<IndexT, ValueT>* m) {
  return *m;
}

/// Borrow every element of a value span as a pointer (k pointers — the
/// only per-call cost of the value-span convenience API).
template <class IndexT, class ValueT>
void borrow_all(std::span<const CscMatrix<IndexT, ValueT>> inputs,
                std::vector<const CscMatrix<IndexT, ValueT>*>& ptrs) {
  ptrs.clear();
  ptrs.reserve(inputs.size());
  for (const auto& m : inputs) ptrs.push_back(&m);
}

/// Reject shapes where a row index can alias the hash kernels' empty-slot
/// sentinel IndexT(-1) (the predicate lives in validate.hpp so validate()
/// and the drivers agree on which shapes are legal): the kernels key on
/// raw, unchecked row indices, and at the maximum unsigned row count an
/// off-by-one index equal to the sentinel is silently mis-accumulated
/// rather than detected.
template <class IndexT>
void check_sentinel_shape(IndexT rows) {
  if (shape_hits_hash_sentinel(rows))
    throw std::invalid_argument(
        "spkadd: row count reaches the hash empty-slot sentinel "
        "IndexT(-1); use a wider index type");
}

/// Throw unless all inputs share one shape (and that shape cannot collide
/// with the hash sentinel); returns (rows, cols).
template <class Element>
auto check_conformant(std::span<Element> inputs) {
  if (inputs.empty())
    throw std::invalid_argument("spkadd: empty input collection");
  const auto& first = deref(inputs.front());
  const auto rows = first.rows();
  const auto cols = first.cols();
  for (const auto& e : inputs) {
    const auto& m = deref(e);
    if (m.rows() != rows || m.cols() != cols)
      throw std::invalid_argument("spkadd: inputs are not conformant");
  }
  check_sentinel_shape(rows);
  return std::pair{rows, cols};
}

/// Throw unless every input has sorted columns (merge/heap precondition).
template <class Element>
void require_sorted_inputs(std::span<Element> inputs, const char* algo) {
  for (const auto& e : inputs)
    if (!deref(e).is_sorted())
      throw std::invalid_argument(std::string(algo) +
                                  ": requires sorted input columns "
                                  "(set Options::inputs_sorted or sort)");
}

/// Sum of input nnz (work/I-O accounting unit of Table I).
template <class Element>
std::size_t total_nnz(std::span<Element> inputs) {
  std::size_t t = 0;
  for (const auto& e : inputs) t += deref(e).nnz();
  return t;
}

/// One parallel O(k*n) pass filling `costs` with the per-column summed
/// input nnz — the cost model shared by the per-chunk plan, the symbolic
/// phase and the nnz-balanced schedule.
template <class Element>
void column_input_nnz(std::span<Element> inputs, const Options& opts,
                      std::vector<std::uint64_t>& costs) {
  using IndexT = std::decay_t<decltype(deref(inputs.front()).cols())>;
  const IndexT cols = inputs.empty() ? IndexT{0} : deref(inputs.front()).cols();
  costs.assign(static_cast<std::size_t>(cols), 0);
  const int nthreads =
      opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const std::uint8_t* skip = opts.skip_cols;
#pragma omp parallel for num_threads(nthreads) schedule(static)
  for (IndexT j = 0; j < cols; ++j) {
    // Skipped (dense-resident) columns cost nothing: the fold never
    // gathers their views, so neither the schedule nor the plan should
    // weigh them.
    if (skip && skip[static_cast<std::size_t>(j)] != 0) continue;
    std::uint64_t t = 0;
    for (const auto& e : inputs)
      t += static_cast<std::uint64_t>(deref(e).col_nnz(j));
    costs[static_cast<std::size_t>(j)] = t;
  }
}

/// Greedily cut [0, n) into chunks of roughly equal summed cost, about
/// 8 chunks per thread so the dynamic chunk queue can still rebalance
/// stragglers. Zero-cost tails collapse into the final chunk.
template <class IndexT>
void balance_chunks(std::span<const std::uint64_t> costs, int nthreads,
                    std::vector<std::pair<IndexT, IndexT>>& chunks) {
  chunks.clear();
  const auto n = static_cast<IndexT>(costs.size());
  if (n == 0) return;
  std::uint64_t total = 0;
  for (const std::uint64_t c : costs) total += c;
  const auto target = static_cast<std::uint64_t>(
      std::max(1, nthreads) * 8);
  const std::uint64_t per = std::max<std::uint64_t>(1, total / target);
  IndexT begin = 0;
  std::uint64_t acc = 0;
  for (IndexT j = 0; j < n; ++j) {
    acc += costs[static_cast<std::size_t>(j)];
    if (acc >= per) {
      chunks.push_back({begin, static_cast<IndexT>(j + 1)});
      begin = static_cast<IndexT>(j + 1);
      acc = 0;
    }
  }
  if (begin < n) chunks.push_back({begin, n});
}

/// Column-parallel loop honoring Options::{threads, schedule}; `body` is
/// called as body(j, OpCounters*) where the counter pointer is thread-
/// private (or null when opts.counters is null) and reduced afterwards.
/// With Schedule::NnzBalanced and a cost vector sized to n, the columns are
/// pre-partitioned into cost-balanced chunks; otherwise NnzBalanced
/// degrades to the dynamic schedule.
template <class IndexT, class Body>
void for_each_column(IndexT n, const Options& opts,
                     std::span<const std::uint64_t> costs, Body&& body) {
  const int nthreads =
      opts.threads > 0 ? opts.threads : omp_get_max_threads();
  std::vector<OpCounters> per(static_cast<std::size_t>(nthreads));

  const bool balanced = opts.schedule == Schedule::NnzBalanced &&
                        costs.size() == static_cast<std::size_t>(n) && n > 0;
  if (balanced) {
    std::vector<std::pair<IndexT, IndexT>> chunks;
    balance_chunks(costs, nthreads, chunks);
    const auto nchunks = static_cast<std::int64_t>(chunks.size());
#pragma omp parallel num_threads(nthreads)
    {
      OpCounters* c =
          opts.counters
              ? &per[static_cast<std::size_t>(omp_get_thread_num())]
              : nullptr;
#pragma omp for schedule(dynamic, 1) nowait
      for (std::int64_t i = 0; i < nchunks; ++i)
        for (IndexT j = chunks[static_cast<std::size_t>(i)].first;
             j < chunks[static_cast<std::size_t>(i)].second; ++j)
          body(j, c);
    }
  } else {
    const bool dynamic = opts.schedule != Schedule::Static;
#pragma omp parallel num_threads(nthreads)
    {
      OpCounters* c =
          opts.counters
              ? &per[static_cast<std::size_t>(omp_get_thread_num())]
              : nullptr;
      if (dynamic) {
#pragma omp for schedule(dynamic, 8) nowait
        for (IndexT j = 0; j < n; ++j) body(j, c);
      } else {
#pragma omp for schedule(static) nowait
        for (IndexT j = 0; j < n; ++j) body(j, c);
      }
    }
  }
  if (opts.counters)
    for (const auto& c : per) *opts.counters += c;
}

template <class IndexT, class Body>
void for_each_column(IndexT n, const Options& opts, Body&& body) {
  for_each_column(n, opts, std::span<const std::uint64_t>{},
                  std::forward<Body>(body));
}

/// Chunk-parallel loop over pre-partitioned column ranges — the dispatch
/// unit of Method::Hybrid, whose chunks are already cost-balanced, so the
/// chunk queue is drained `dynamic,1` exactly like the NnzBalanced
/// schedule (Schedule::Static keeps a static split for the ablation
/// bench). `body` is called as body(chunk_index, OpCounters*) with the
/// same thread-private counter contract as for_each_column.
template <class IndexT, class Body>
void for_each_chunk(std::span<const std::pair<IndexT, IndexT>> chunks,
                    const Options& opts, Body&& body) {
  const int nthreads =
      opts.threads > 0 ? opts.threads : omp_get_max_threads();
  std::vector<OpCounters> per(static_cast<std::size_t>(nthreads));
  const auto nchunks = static_cast<std::int64_t>(chunks.size());
  const bool dynamic = opts.schedule != Schedule::Static;
#pragma omp parallel num_threads(nthreads)
  {
    OpCounters* c =
        opts.counters
            ? &per[static_cast<std::size_t>(omp_get_thread_num())]
            : nullptr;
    if (dynamic) {
#pragma omp for schedule(dynamic, 1) nowait
      for (std::int64_t i = 0; i < nchunks; ++i)
        body(static_cast<std::size_t>(i), c);
    } else {
#pragma omp for schedule(static) nowait
      for (std::int64_t i = 0; i < nchunks; ++i)
        body(static_cast<std::size_t>(i), c);
    }
  }
  if (opts.counters)
    for (const auto& c : per) *opts.counters += c;
}

/// Gather the jth column views of all inputs into `views` (reused scratch);
/// empty columns are skipped — they contribute nothing to any kernel. A
/// column masked by `skip` (Options::skip_cols, the Accumulator's
/// dense-resident mask) gathers NO views: every kernel then naturally
/// emits an empty output column, which is how the sparse fold excludes
/// dense-resident columns without per-driver special cases.
template <class Element, class IndexT, class ValueT>
void gather_views(std::span<Element> inputs, IndexT j,
                  std::vector<ColumnView<IndexT, ValueT>>& views,
                  const std::uint8_t* skip = nullptr) {
  views.clear();
  if (skip && skip[static_cast<std::size_t>(j)] != 0) return;
  for (const auto& e : inputs) {
    auto col = deref(e).column(j);
    if (!col.empty()) views.push_back(col);
  }
}

/// Streamed-bytes model of Table I's I/O column: every input nonzero read
/// once plus every output nonzero written once.
template <class IndexT, class ValueT>
std::uint64_t streamed_bytes(std::size_t input_nnz, std::size_t output_nnz) {
  constexpr std::uint64_t entry = sizeof(IndexT) + sizeof(ValueT);
  return entry * (static_cast<std::uint64_t>(input_nnz) +
                  static_cast<std::uint64_t>(output_nnz));
}

}  // namespace detail

}  // namespace spkadd::core
