// Shared plumbing for the SpKAdd drivers: input checking, the team size,
// the per-column cost scan, the chunk cutter and the one column-parallel
// loop (for_each_chunk, with per-thread counter reduction), and view
// gathering.
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

/// The OpenMP team size of a call: Options::threads, or
/// omp_get_max_threads() when it is 0.
[[nodiscard]] inline int team_size(const Options& opts) {
  return opts.threads > 0 ? opts.threads : omp_get_max_threads();
}

/// One parallel O(k*n) pass filling `costs` with the per-column summed
/// input nnz — the cost model of the per-chunk plan, which both its
/// chunk cut and its kernel choice read.
template <class Element>
void column_input_nnz(std::span<Element> inputs, const Options& opts,
                      std::vector<std::uint64_t>& costs) {
  using IndexT = std::decay_t<decltype(deref(inputs.front()).cols())>;
  const IndexT cols = inputs.empty() ? IndexT{0} : deref(inputs.front()).cols();
  costs.assign(static_cast<std::size_t>(cols), 0);
  const int nthreads = team_size(opts);
#pragma omp parallel for num_threads(nthreads) schedule(static)
  for (IndexT j = 0; j < cols; ++j) {
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

/// The chunk cutter. `costs` covers the n columns exactly when the caller
/// scanned them (a planned call), and then the columns are cut into
/// cost-balanced chunks; every other column loop (a single-kernel method,
/// the 2-way merge) cuts 8-column blocks. for_each_chunk drains either
/// cut `dynamic,1`, so the blocks reproduce OpenMP's `dynamic,8`, the
/// paper's schedule (§III-A).
template <class IndexT>
void cut_chunks(IndexT n, std::span<const std::uint64_t> costs,
                const Options& opts,
                std::vector<std::pair<IndexT, IndexT>>& chunks) {
  if (costs.size() == static_cast<std::size_t>(n)) {
    balance_chunks(costs, team_size(opts), chunks);
    return;
  }
  chunks.clear();
  constexpr IndexT kBlock = 8;
  for (IndexT j = 0; j < n; j += kBlock)
    chunks.push_back(
        {j, n - j > kBlock ? static_cast<IndexT>(j + kBlock) : n});
}

/// The column-parallel loop: drain `chunks` `dynamic,1` on a team of
/// team_size(opts) threads. `body` is called as body(chunk_index,
/// OpCounters*) where the counter pointer is thread-private (or null when
/// opts.counters is null) and reduced afterwards.
template <class IndexT, class Body>
void for_each_chunk(std::span<const std::pair<IndexT, IndexT>> chunks,
                    const Options& opts, Body&& body) {
  const int nthreads = team_size(opts);
  std::vector<OpCounters> per(static_cast<std::size_t>(nthreads));
  const auto nchunks = static_cast<std::int64_t>(chunks.size());
#pragma omp parallel num_threads(nthreads)
  {
    OpCounters* c =
        opts.counters
            ? &per[static_cast<std::size_t>(omp_get_thread_num())]
            : nullptr;
#pragma omp for schedule(dynamic, 1) nowait
    for (std::int64_t i = 0; i < nchunks; ++i)
      body(static_cast<std::size_t>(i), c);
  }
  if (opts.counters)
    for (const auto& c : per) *opts.counters += c;
}

/// Gather the jth column views of all inputs into `views` (reused scratch);
/// empty columns are skipped — they contribute nothing to any kernel.
template <class Element, class IndexT, class ValueT>
void gather_views(std::span<Element> inputs, IndexT j,
                  std::vector<ColumnView<IndexT, ValueT>>& views) {
  views.clear();
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
