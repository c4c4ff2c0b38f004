// Thread-private scratch spaces reused across columns.
//
// The paper's parallelization (§III-A) keeps one data structure per thread —
// heap of size k, SPA of size m, hash table sized to the current column —
// and the per-column kernels run sequentially on that private scratch.
// Reusing the scratch across columns is what keeps the hash tables hot in
// cache; the dense accumulator (the SPA) avoids O(m) clearing per column by
// resetting only the slots and bitmap words a column touched.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "matrix/column_view.hpp"
#include "util/bit_ops.hpp"

namespace spkadd::core {

/// Hash-table scratch for the numeric phase: open addressing with linear
/// probing, keys = row indices (kEmpty = free slot). Sized per column to the
/// smallest power of two > nnz(B(:,j)) as in Alg. 5.
template <class IndexT, class ValueT>
struct HashWorkspace {
  static constexpr IndexT kEmpty = static_cast<IndexT>(-1);

  std::vector<IndexT> keys;
  std::vector<ValueT> vals;
  std::size_t mask = 0;

  /// Prepare a table with `entries` slots (must be a power of two). Only
  /// grows the backing store; re-initializes exactly `entries` slots, which
  /// is the O(table) init the paper charges to the hash algorithm.
  void reset(std::size_t entries) {
    if (keys.size() < entries) {
      keys.resize(entries);
      vals.resize(entries);
    }
    std::fill(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(entries),
              kEmpty);
    mask = entries - 1;
  }

  [[nodiscard]] std::size_t capacity() const { return mask + 1; }
};

/// Symbolic-phase hash scratch: keys only (the paper notes the symbolic
/// table stores indices only, b = 4 bytes).
template <class IndexT>
struct SymbolicHashWorkspace {
  static constexpr IndexT kEmpty = static_cast<IndexT>(-1);

  std::vector<IndexT> keys;
  std::size_t mask = 0;

  void reset(std::size_t entries) {
    if (keys.size() < entries) keys.resize(entries);
    std::fill(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(entries),
              kEmpty);
    mask = entries - 1;
  }

  [[nodiscard]] std::size_t capacity() const { return mask + 1; }
};

/// Dense-accumulator scratch for the DenseAcc kernel, the SPA of Alg. 4:
/// a dense value array of length m, an occupancy bitmap (one bit per row)
/// and a summary bitmap (one bit per occupancy word). Every value slot
/// holds kIdentity between columns, so a scatter adds into its slot
/// whether or not the row was touched before; the bitmaps only record
/// which rows to emit. They stand in for Alg. 4's list of touched rows:
/// emission walks the summary's set bits to the occupancy words that hold
/// entries, ascending, so the list never needs sorting. The kernel's
/// contract is that between columns every slot is kIdentity and both
/// bitmaps are all-zero: every column pass resets exactly what it set.
template <class ValueT>
struct DenseAccWorkspace {
  /// -0.0, IEEE addition's identity: -0.0 + x is x bit for bit for every
  /// non-NaN x, ±0.0 included (0 for an integer ValueT).
  static constexpr ValueT kIdentity = static_cast<ValueT>(-0.0);

  std::vector<ValueT> values;
  std::vector<std::uint64_t> mask;
  std::vector<std::uint64_t> summary;

  /// Allocate for matrices with `rows` rows (idempotent). New slots start
  /// at kIdentity and new bitmap words zero, establishing the invariant.
  void ensure_rows(std::size_t rows) {
    if (values.size() < rows) values.resize(rows, kIdentity);
    const std::size_t words = (rows + 63) / 64;
    if (mask.size() < words) mask.resize(words, 0);
    if (summary.size() < (words + 63) / 64)
      summary.resize((words + 63) / 64, 0);
  }
};

/// Min-heap scratch for Alg. 3: array-based binary heap of (row, source)
/// pairs plus one cursor per input column. Values are read through the
/// cursor on extraction, so the heap nodes stay 8 bytes.
template <class IndexT>
struct HeapWorkspace {
  struct Node {
    IndexT row;
    std::int32_t source;
  };
  std::vector<Node> nodes;
  std::vector<std::size_t> cursor;

  void ensure_k(std::size_t k) {
    if (nodes.capacity() < k) nodes.reserve(k);
    if (cursor.size() < k) cursor.resize(k);
  }
};

/// Everything one thread needs across any SpKAdd phase: the method scratch
/// structures plus the view/partition buffers of the symbolic and
/// sliding passes. One superset struct (rather than one per kernel) lets
/// a single pool serve symbolic + numeric phases and every method, so a
/// streaming accumulator can keep the scratch hot across batches. All
/// members start empty and only grow on first use, so within one call a
/// thread's scratch footprint is the union of the kernels its chunks
/// actually ran — e.g. the O(m) dense array is never allocated on a
/// thread that only ever drew hash chunks.
template <class IndexT, class ValueT>
struct ThreadScratch {
  HashWorkspace<IndexT, ValueT> table;
  SymbolicHashWorkspace<IndexT> sym_table;
  HeapWorkspace<IndexT> heap;
  DenseAccWorkspace<ValueT> dense;
  std::vector<ColumnView<IndexT, ValueT>> views;
  std::vector<ColumnView<IndexT, ValueT>> part_views;
  std::vector<IndexT> rows_scratch;
  std::vector<ValueT> vals_scratch;
  std::vector<std::size_t> bounds;

  /// Call f on every backing vector above, in declaration order.
  template <class Self, class F>
  static void for_each_buffer(Self& s, F&& f) {
    f(s.table.keys);
    f(s.table.vals);
    f(s.sym_table.keys);
    f(s.dense.values);
    f(s.dense.mask);
    f(s.dense.summary);
    f(s.heap.nodes);
    f(s.heap.cursor);
    f(s.views);
    f(s.part_views);
    f(s.rows_scratch);
    f(s.vals_scratch);
    f(s.bounds);
  }

  /// Bytes of backing storage currently held (footprint reporting and the
  /// no-regrowth reuse tests).
  [[nodiscard]] std::size_t storage_bytes() const {
    std::size_t total = 0;
    for_each_buffer(*this, [&total](const auto& v) {
      total += v.capacity() * sizeof(v[0]);
    });
    return total;
  }
};

/// Per-call execution context that is *reusable across calls*: the
/// per-thread scratch pool and the per-column input-nnz totals driving both
/// the per-chunk plan and nnz-balanced scheduling. core::spkadd accepts an
/// optional Runtime; when none is given it falls back to a call-local one.
/// The Accumulator owns one so hash/dense/heap scratch survives across
/// batches instead of being re-grown per call.
template <class IndexT, class ValueT>
struct Runtime {
  std::vector<ThreadScratch<IndexT, ValueT>> scratch;

  /// Per-column sum of input nnz, rescanned by every call whose plan
  /// needs it (a planned call, or Schedule::NnzBalanced); the vector only
  /// keeps its capacity across calls.
  std::vector<std::uint64_t> col_costs;

  void ensure_threads(int nthreads) {
    if (scratch.size() < static_cast<std::size_t>(nthreads))
      scratch.resize(static_cast<std::size_t>(nthreads));
  }

  [[nodiscard]] std::size_t storage_bytes() const {
    std::size_t total = col_costs.capacity() * sizeof(std::uint64_t);
    for (const auto& s : scratch) total += s.storage_bytes();
    return total;
  }

  /// Reserve every thread's scratch vectors to the largest capacity any
  /// thread holds. Dynamic scheduling hands columns to different threads
  /// on every call, so without this a persistent Runtime keeps growing
  /// whenever a thread draws a heavier column than it drew before, even
  /// on an identical stream. Afterwards every thread can run any column
  /// seen so far without reallocating. O(threads) per buffer; owners that
  /// reuse a Runtime across calls (the Accumulator) call it after each
  /// fold, one-shot calls do not.
  void level_scratch() {
    using Scratch = ThreadScratch<IndexT, ValueT>;
    std::vector<std::size_t> caps;
    for (const Scratch& s : scratch) {
      std::size_t i = 0;
      Scratch::for_each_buffer(s, [&](const auto& v) {
        if (caps.size() <= i) caps.push_back(0);
        caps[i] = std::max(caps[i], v.capacity());
        ++i;
      });
    }
    for (Scratch& s : scratch) {
      std::size_t i = 0;
      Scratch::for_each_buffer(s, [&](auto& v) { v.reserve(caps[i++]); });
    }
  }
};

/// Size of the hash table allocated for `need` distinct keys. Alg. 5 line 2
/// asks for "a power of two greater than nnz"; taken literally that allows
/// load factors arbitrarily close to 1 (e.g. 1023 keys in 1024 slots), where
/// linear probing degenerates and the O(1)-probe analysis of Table I breaks.
/// We therefore size at the smallest power of two >= 2*need, guaranteeing a
/// load factor <= 0.5 — the standard engineering reading of the algorithm.
[[nodiscard]] inline std::size_t hash_table_entries(std::size_t need) {
  return static_cast<std::size_t>(util::next_pow2(2 * need));
}

}  // namespace spkadd::core
