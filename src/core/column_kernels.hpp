// Sequential per-column kernels — the building blocks of every SpKAdd
// algorithm. Each kernel adds the jth columns of all k inputs into the jth
// output column; the column-kernel driver (kway.hpp) runs them inside one
// chunk-parallel OpenMP loop on thread-private workspaces (paper §III-A).
//
//   merge2_*           ColAdd of Alg. 1 (2-way merge of sorted columns)
//   heap_add_column    Alg. 3 (k-way min-heap merge)
//   hash_symbolic_column  Alg. 6 (count nnz(B(:,j)))
//   hash_add_column    Alg. 5 (hash-table accumulation)
//   sliding_symbolic_column   Alg. 7 (cache-capped symbolic partition)
//   sliding_hash_add_column   Alg. 8 (cache-capped numeric partition)
//   dense_symbolic_column     occupancy-bitmap distinct-row count
//   dense_add_column   Alg. 4 (sparse accumulator: a dense value array
//                      with its touched rows held as bitmaps)
//
// The ColumnKernel layer at the bottom puts the four k-way kernels (heap,
// hash, sliding hash, dense) behind one uniform symbolic/numeric
// per-column interface, the unit a ColumnPlan assigns to each column
// chunk and among which the per-chunk planner of Method::Auto picks.
// Every kernel accumulates equal-row values strictly left to right over
// the inputs, so any per-chunk mix of them is bit-identical to any
// single kernel run over the whole matrix.
//
// All kernels optionally count operations into an OpCounters for the
// Table I complexity bench.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>

#include "core/dense_simd.hpp"
#include "core/options.hpp"
#include "core/workspace.hpp"
#include "matrix/column_view.hpp"
#include "util/bit_ops.hpp"
#include "util/radix_sort.hpp"

namespace spkadd::core {

/// Multiplicative masking hash of the paper: h = (a * r) & (2^q - 1) with a
/// prime multiplier (Knuth's 2654435761). `mask` must be 2^q - 1.
template <class IndexT>
[[nodiscard]] inline std::size_t hash_index(IndexT r, std::size_t mask) {
  return (static_cast<std::size_t>(static_cast<std::uint64_t>(r) *
                                   2654435761ULL)) &
         mask;
}

// ---------------------------------------------------------------------------
// 2-way merge (ColAdd)
// ---------------------------------------------------------------------------

/// Count the merged size of two sorted columns (symbolic ColAdd).
template <class IndexT, class ValueT>
[[nodiscard]] std::size_t merge2_count(const ColumnView<IndexT, ValueT>& a,
                                       const ColumnView<IndexT, ValueT>& b,
                                       OpCounters* counters = nullptr) {
  std::size_t ia = 0, ib = 0, out = 0;
  while (ia < a.nnz() && ib < b.nnz()) {
    const IndexT ra = a.rows[ia];
    const IndexT rb = b.rows[ib];
    ia += (ra <= rb);
    ib += (rb <= ra);
    ++out;
  }
  out += (a.nnz() - ia) + (b.nnz() - ib);
  if (counters) counters->merge_ops += a.nnz() + b.nnz();
  return out;
}

/// Merge-add two sorted columns into (out_rows, out_vals); returns the
/// number of entries written. Output arrays must have room for
/// a.nnz() + b.nnz() in the worst case.
template <class IndexT, class ValueT>
std::size_t merge2_add(const ColumnView<IndexT, ValueT>& a,
                       const ColumnView<IndexT, ValueT>& b, IndexT* out_rows,
                       ValueT* out_vals, OpCounters* counters = nullptr) {
  std::size_t ia = 0, ib = 0, out = 0;
  while (ia < a.nnz() && ib < b.nnz()) {
    const IndexT ra = a.rows[ia];
    const IndexT rb = b.rows[ib];
    if (ra < rb) {
      out_rows[out] = ra;
      out_vals[out++] = a.vals[ia++];
    } else if (rb < ra) {
      out_rows[out] = rb;
      out_vals[out++] = b.vals[ib++];
    } else {
      out_rows[out] = ra;
      out_vals[out++] = a.vals[ia++] + b.vals[ib++];
    }
  }
  for (; ia < a.nnz(); ++ia) {
    out_rows[out] = a.rows[ia];
    out_vals[out++] = a.vals[ia];
  }
  for (; ib < b.nnz(); ++ib) {
    out_rows[out] = b.rows[ib];
    out_vals[out++] = b.vals[ib];
  }
  if (counters) counters->merge_ops += a.nnz() + b.nnz();
  return out;
}

// ---------------------------------------------------------------------------
// k-way heap merge (Alg. 3)
// ---------------------------------------------------------------------------

/// k-way merge-add of sorted columns through a binary min-heap keyed on
/// (row, source) — ties on row resolve in input order, so equal-row values
/// accumulate strictly left to right. That makes the floating-point result a
/// pure left fold over the inputs, which is what lets a streaming reducer
/// (running sum first, then the staged addends in arrival order) reproduce
/// the one-shot k-way result bit for bit. Output is sorted by construction.
/// Returns entries written; output arrays must hold sum of input nnz in the
/// worst case.
template <class IndexT, class ValueT>
std::size_t heap_add_column(std::span<const ColumnView<IndexT, ValueT>> cols,
                            HeapWorkspace<IndexT>& ws, IndexT* out_rows,
                            ValueT* out_vals, OpCounters* counters = nullptr) {
  using Node = typename HeapWorkspace<IndexT>::Node;
  ws.ensure_k(cols.size());
  ws.nodes.clear();
  std::uint64_t ops = 0;

  // Lines 3-5: seed the heap with the first entry of each column.
  for (std::size_t i = 0; i < cols.size(); ++i) {
    ws.cursor[i] = 0;
    if (!cols[i].empty())
      ws.nodes.push_back(Node{cols[i].rows[0], static_cast<std::int32_t>(i)});
  }
  // (row, source) lexicographic order: `before(x, y)` means x pops first.
  auto before = [](const Node& x, const Node& y) {
    return x.row < y.row || (x.row == y.row && x.source < y.source);
  };
  auto less = [&before](const Node& x, const Node& y) { return before(y, x); };
  std::make_heap(ws.nodes.begin(), ws.nodes.end(), less);
  ops += ws.nodes.size();

  std::size_t out = 0;
  while (!ws.nodes.empty()) {
    const Node top = ws.nodes.front();
    const auto src = static_cast<std::size_t>(top.source);
    const ValueT v = cols[src].vals[ws.cursor[src]];
    // Lines 8-11: extend or accumulate into the (sorted) output tail.
    if (out > 0 && out_rows[out - 1] == top.row) {
      out_vals[out - 1] += v;
    } else {
      out_rows[out] = top.row;
      out_vals[out++] = v;
    }
    // Lines 12-14: replace the root with the source's next entry (replace +
    // sift-down rather than pop+push: one O(lg k) operation per element).
    const std::size_t next = ++ws.cursor[src];
    if (next < cols[src].nnz()) {
      ws.nodes.front().row = cols[src].rows[next];
      // sift down (counting one op per level, the lg k factor of Table I)
      std::size_t hole = 0;
      const std::size_t n = ws.nodes.size();
      const Node item = ws.nodes[0];
      for (;;) {
        std::size_t child = 2 * hole + 1;
        if (child >= n) break;
        ++ops;
        if (child + 1 < n && before(ws.nodes[child + 1], ws.nodes[child]))
          ++child;
        if (!before(ws.nodes[child], item)) break;
        ws.nodes[hole] = ws.nodes[child];
        hole = child;
      }
      ws.nodes[hole] = item;
    } else {
      ops += ws.nodes.empty()
                 ? 0
                 : util::log2_floor(
                       static_cast<std::uint64_t>(ws.nodes.size())) +
                       1;
      std::pop_heap(ws.nodes.begin(), ws.nodes.end(), less);
      ws.nodes.pop_back();
    }
    ++ops;
  }
  if (counters) counters->heap_ops += ops;
  return out;
}

// ---------------------------------------------------------------------------
// Hash (Alg. 5 / Alg. 6)
// ---------------------------------------------------------------------------

/// Alg. 6: count nnz of the added column with a keys-only hash table sized
/// by the total input nnz of this column (upper bound on distinct rows).
template <class IndexT, class ValueT>
std::size_t hash_symbolic_column(
    std::span<const ColumnView<IndexT, ValueT>> cols,
    SymbolicHashWorkspace<IndexT>& ws, OpCounters* counters = nullptr) {
  std::size_t input_nnz = 0;
  for (const auto& col : cols) input_nnz += col.nnz();
  if (input_nnz == 0) return 0;
  const std::size_t entries = hash_table_entries(input_nnz);
  ws.reset(entries);

  std::uint64_t probes = 0;
  std::size_t nz = 0;
  for (const auto& col : cols) {
    for (std::size_t i = 0; i < col.nnz(); ++i) {
      const IndexT r = col.rows[i];
      std::size_t h = hash_index(r, ws.mask);
      for (;;) {
        ++probes;
        if (ws.keys[h] == SymbolicHashWorkspace<IndexT>::kEmpty) {
          ws.keys[h] = r;
          ++nz;
          break;
        }
        if (ws.keys[h] == r) break;
        h = (h + 1) & ws.mask;  // linear probing
      }
    }
  }
  if (counters) {
    counters->hash_probes += probes;
    counters->table_inits += entries;
  }
  return nz;
}

/// Alg. 5: accumulate k columns into a hash table sized by `expected_nnz`
/// (the symbolic result), then emit. Works on sorted or unsorted inputs.
/// Returns entries written (== expected_nnz).
template <class IndexT, class ValueT>
std::size_t hash_add_column(std::span<const ColumnView<IndexT, ValueT>> cols,
                            std::size_t expected_nnz,
                            HashWorkspace<IndexT, ValueT>& ws,
                            IndexT* out_rows, ValueT* out_vals,
                            bool sorted_output,
                            OpCounters* counters = nullptr) {
  if (expected_nnz == 0) return 0;
  const std::size_t entries = hash_table_entries(expected_nnz);
  ws.reset(entries);

  std::uint64_t probes = 0;
  for (const auto& col : cols) {
    for (std::size_t i = 0; i < col.nnz(); ++i) {
      const IndexT r = col.rows[i];
      const ValueT v = col.vals[i];
      std::size_t h = hash_index(r, ws.mask);
      for (;;) {
        ++probes;
        if (ws.keys[h] == HashWorkspace<IndexT, ValueT>::kEmpty) {
          ws.keys[h] = r;
          ws.vals[h] = v;
          break;
        }
        if (ws.keys[h] == r) {
          ws.vals[h] += v;
          break;
        }
        h = (h + 1) & ws.mask;
      }
    }
  }

  // Lines 13-14: sweep valid slots into the output...
  std::size_t out = 0;
  for (std::size_t h = 0; h < entries; ++h) {
    if (ws.keys[h] != HashWorkspace<IndexT, ValueT>::kEmpty) {
      out_rows[out] = ws.keys[h];
      out_vals[out++] = ws.vals[h];
    }
  }
  // ...then sort if the caller wants canonical columns (line 15). Radix
  // sort: comparison sorting would dominate the numeric phase on dense
  // columns (see util/radix_sort.hpp).
  if (sorted_output && out > 1) {
    thread_local util::RadixScratch<IndexT, ValueT> sort_scratch;
    util::radix_sort_pairs(out_rows, out_vals, out, sort_scratch);
  }
  if (counters) {
    counters->hash_probes += probes;
    counters->table_inits += entries;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sliding hash (Alg. 7 / Alg. 8)
// ---------------------------------------------------------------------------

namespace detail {

/// Filter the entries of `views` with row index in [r1, r2) into scratch
/// arrays and return views over the filtered copies. Used for sliding over
/// *unsorted* inputs, where binary-search slicing is unavailable.
template <class IndexT, class ValueT>
void filter_range(std::span<const ColumnView<IndexT, ValueT>> views, IndexT r1,
                  IndexT r2, std::vector<IndexT>& rows_scratch,
                  std::vector<ValueT>& vals_scratch,
                  std::vector<std::size_t>& bounds,
                  std::vector<ColumnView<IndexT, ValueT>>& out_views) {
  rows_scratch.clear();
  vals_scratch.clear();
  bounds.clear();
  bounds.push_back(0);
  for (const auto& v : views) {
    for (std::size_t i = 0; i < v.nnz(); ++i) {
      if (v.rows[i] >= r1 && v.rows[i] < r2) {
        rows_scratch.push_back(v.rows[i]);
        vals_scratch.push_back(v.vals[i]);
      }
    }
    bounds.push_back(rows_scratch.size());
  }
  out_views.clear();
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    const std::size_t lo = bounds[s];
    const std::size_t len = bounds[s + 1] - lo;
    if (len == 0) continue;
    out_views.push_back(ColumnView<IndexT, ValueT>{
        std::span<const IndexT>(rows_scratch).subspan(lo, len),
        std::span<const ValueT>(vals_scratch).subspan(lo, len)});
  }
}

/// Slice `views` to the row range [r1, r2) into scratch.part_views —
/// binary search on sorted inputs, filtering otherwise (Alg. 7/8 line 4).
template <class IndexT, class ValueT>
void slice_row_range(std::span<const ColumnView<IndexT, ValueT>> views,
                     IndexT r1, IndexT r2, bool inputs_sorted,
                     ThreadScratch<IndexT, ValueT>& scratch) {
  if (inputs_sorted) {
    scratch.part_views.clear();
    for (const auto& v : views) {
      auto sub = v.row_range(r1, r2);
      if (!sub.empty()) scratch.part_views.push_back(sub);
    }
  } else {
    filter_range(views, r1, r2, scratch.rows_scratch, scratch.vals_scratch,
                 scratch.bounds, scratch.part_views);
  }
}

}  // namespace detail

/// Alg. 7 for one column: plain hash symbolic when the table fits the cache
/// budget, otherwise slide over `parts` row ranges. Scratch is the shared
/// per-thread superset (symbolic uses its sym_table + view buffers).
template <class IndexT, class ValueT>
std::size_t sliding_symbolic_column(
    std::span<const ColumnView<IndexT, ValueT>> views, IndexT rows,
    std::size_t cap_entries, bool inputs_sorted,
    ThreadScratch<IndexT, ValueT>& scratch, OpCounters* counters) {
  std::size_t inz = 0;
  for (const auto& v : views) inz += v.nnz();
  if (inz == 0) return 0;
  const std::size_t parts = util::ceil_div(inz, cap_entries);
  if (parts <= 1)
    return hash_symbolic_column(views, scratch.sym_table, counters);

  std::size_t nz = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const auto r1 = static_cast<IndexT>(
        static_cast<std::size_t>(rows) * p / parts);
    const auto r2 = static_cast<IndexT>(
        static_cast<std::size_t>(rows) * (p + 1) / parts);
    detail::slice_row_range(views, r1, r2, inputs_sorted, scratch);
    nz += hash_symbolic_column(
        std::span<const ColumnView<IndexT, ValueT>>(scratch.part_views),
        scratch.sym_table, counters);
  }
  return nz;
}

/// Alg. 8 for one column: partition by the column's *output* nnz (known
/// from the symbolic phase) so each numeric table fits the `cap_entries`
/// cache budget, then HASHADD each row-range part in ascending order.
/// Tables are sized from the part's own keys-only symbolic count — 2-3x
/// smaller than the input-nnz bound when cf > 1, the effect the paper
/// highlights for Eukarya. Returns entries written (== out_nnz).
template <class IndexT, class ValueT>
std::size_t sliding_hash_add_column(
    std::span<const ColumnView<IndexT, ValueT>> views, std::size_t out_nnz,
    IndexT rows, std::size_t cap_entries, bool inputs_sorted,
    bool sorted_output, ThreadScratch<IndexT, ValueT>& scratch,
    IndexT* out_rows, ValueT* out_vals, OpCounters* counters = nullptr) {
  if (out_nnz == 0) return 0;
  const std::size_t parts = util::ceil_div(out_nnz, cap_entries);
  if (parts <= 1)
    return hash_add_column(views, out_nnz, scratch.table, out_rows, out_vals,
                           sorted_output, counters);
  std::size_t written = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const auto r1 = static_cast<IndexT>(
        static_cast<std::size_t>(rows) * p / parts);
    const auto r2 = static_cast<IndexT>(
        static_cast<std::size_t>(rows) * (p + 1) / parts);
    detail::slice_row_range(views, r1, r2, inputs_sorted, scratch);
    if (scratch.part_views.empty()) continue;
    const std::span<const ColumnView<IndexT, ValueT>> pviews(
        scratch.part_views);
    const std::size_t part_onz =
        hash_symbolic_column(pviews, scratch.sym_table, counters);
    written += hash_add_column(pviews, part_onz, scratch.table,
                               out_rows + written, out_vals + written,
                               sorted_output, counters);
  }
  return written;
}

// ---------------------------------------------------------------------------
// Dense accumulator (Alg. 4, ColumnKernel::DenseAcc)
// ---------------------------------------------------------------------------

namespace detail {

/// True when `v` is the identity-dense column 0..rows-1 (one entry per
/// row, ascending) — the shape a fully dense addend or a promoted running
/// sum presents. Checked exactly with one vector-friendly pass rather
/// than inferred from nnz == rows: unsorted and duplicate-row columns are
/// legal inputs to the hash-family kernels, so a count alone proves
/// nothing.
template <class IndexT, class ValueT>
[[nodiscard]] inline bool is_identity_dense(
    const ColumnView<IndexT, ValueT>& v, IndexT rows) {
  const std::size_t n = v.nnz();
  if (n != static_cast<std::size_t>(rows) || n == 0) return false;
  if (v.rows[0] != 0 || v.rows[n - 1] != rows - 1) return false;
  for (std::size_t i = 0; i < n; ++i)
    if (v.rows[i] != static_cast<IndexT>(i)) return false;
  return true;
}

/// A view with at least one entry per this many rows is a dense view. Its
/// consecutive entries share occupancy words, so an unconditional
/// `mask |= bit` per entry chains every store into the next entry's load;
/// dense views test the bit before storing it, in both passes. Storing
/// unconditionally took bench_hybrid's RMAT-hub DenseAcc from 0.179 to
/// 0.120 Gnnz/s at T=1 on a 4-vCPU Xeon, and its hub column from
/// 2.2-4.4 ms to 5.5-7.0 ms in a serial probe.
inline constexpr std::size_t kDenseViewRowsPerEntry = 64;

template <class IndexT, class ValueT>
[[nodiscard]] inline bool is_dense_view(const ColumnView<IndexT, ValueT>& v,
                                        IndexT rows) {
  return v.nnz() * kDenseViewRowsPerEntry >= static_cast<std::size_t>(rows);
}

}  // namespace detail

/// Symbolic phase of the dense kernel: count distinct rows through the
/// occupancy bitmap (sequential word access — on dense columns this beats
/// the random probes of the hash symbolic). A sparse view counts without
/// a branch; a dense view tests before it stores (kDenseViewRowsPerEntry).
/// Restores the workspace's all-clear mask invariant by replaying the
/// touched words.
template <class IndexT, class ValueT>
std::size_t dense_symbolic_column(
    std::span<const ColumnView<IndexT, ValueT>> cols, IndexT rows,
    DenseAccWorkspace<ValueT>& ws, OpCounters* counters = nullptr) {
  std::size_t inz = 0;
  for (const auto& v : cols) inz += v.nnz();
  if (inz == 0) return 0;
  ws.ensure_rows(static_cast<std::size_t>(rows));
  auto* mask = ws.mask.data();
  std::size_t nz = 0;
  for (const auto& v : cols) {
    const std::size_t n = v.nnz();
    if (detail::is_dense_view(v, rows)) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto r = static_cast<std::size_t>(v.rows[i]);
        const std::uint64_t bit = std::uint64_t{1} << (r & 63);
        if (!(mask[r >> 6] & bit)) {
          mask[r >> 6] |= bit;
          ++nz;
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const auto r = static_cast<std::size_t>(v.rows[i]);
        const std::uint64_t word = mask[r >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (r & 63);
        nz += (word & bit) == 0;
        mask[r >> 6] = word | bit;
      }
    }
  }
  // Only words an entry touched can hold set bits; zeroing them by replay
  // is O(input nnz), never O(rows/64).
  for (const auto& v : cols)
    for (std::size_t i = 0; i < v.nnz(); ++i)
      mask[static_cast<std::size_t>(v.rows[i]) >> 6] = 0;
  if (counters) counters->dense_touches += inz;
  return nz;
}

/// Numeric phase of the dense kernel, the paper's Alg. 4: every entry
/// adds into its kIdentity slot unconditionally and marks its row and its
/// occupancy word. A dense view tests its row bit before it marks, and
/// sets a word's summary bit only when the word was empty
/// (kDenseViewRowsPerEntry). Equal rows still fold strictly left to
/// right, the same per-element order as every sparse kernel, so any mix
/// stays bit-identical. An identity-dense addend is one vectorized
/// simd::dense_add. Emission walks the summary bits to the occupied
/// words, ascending, with a full-word fast path, so the output is sorted
/// *by construction* — the bitmap scan replaces the sort of Alg. 4
/// line 8 — and no empty word is visited. Every emitted slot is reset to
/// kIdentity. Returns entries written.
template <class IndexT, class ValueT>
std::size_t dense_add_column(std::span<const ColumnView<IndexT, ValueT>> cols,
                             IndexT rows, DenseAccWorkspace<ValueT>& ws,
                             IndexT* out_rows, ValueT* out_vals,
                             OpCounters* counters = nullptr) {
  constexpr ValueT kIdentity = DenseAccWorkspace<ValueT>::kIdentity;
  std::size_t inz = 0;
  for (const auto& v : cols) inz += v.nnz();
  if (inz == 0) return 0;
  const auto m = static_cast<std::size_t>(rows);
  ws.ensure_rows(m);
  const std::size_t words = (m + 63) / 64;
  auto* vals = ws.values.data();
  auto* mask = ws.mask.data();
  auto* summary = ws.summary.data();

  bool full = false;  // an identity-dense addend touched every row
  for (const auto& v : cols) {
    const std::size_t n = v.nnz();
    if (detail::is_identity_dense(v, rows)) {
      simd::dense_add(vals, v.vals.data(), m);
      full = true;
    } else if (full) {  // every row is emitted: skip the bitmaps
      for (std::size_t i = 0; i < n; ++i)
        vals[static_cast<std::size_t>(v.rows[i])] += v.vals[i];
    } else if (detail::is_dense_view(v, rows)) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto r = static_cast<std::size_t>(v.rows[i]);
        vals[r] += v.vals[i];
        const std::size_t w = r >> 6;
        const std::uint64_t bit = std::uint64_t{1} << (r & 63);
        const std::uint64_t word = mask[w];
        if (!(word & bit)) {
          mask[w] = word | bit;
          if (word == 0) summary[w >> 6] |= std::uint64_t{1} << (w & 63);
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const auto r = static_cast<std::size_t>(v.rows[i]);
        vals[r] += v.vals[i];
        mask[r >> 6] |= std::uint64_t{1} << (r & 63);
        summary[r >> 12] |= std::uint64_t{1} << ((r >> 6) & 63);
      }
    }
  }

  std::size_t out = 0;
  const std::size_t summary_words = (words + 63) / 64;
  if (full) {
    simd::iota_rows(out_rows, IndexT{0}, m);
    simd::dense_copy(out_vals, vals, m);
    std::fill_n(vals, m, kIdentity);
    std::fill_n(mask, words, std::uint64_t{0});
    std::fill_n(summary, summary_words, std::uint64_t{0});
    out = m;
  } else {
    for (std::size_t s = 0; s < summary_words; ++s) {
      for (std::uint64_t sb = summary[s]; sb != 0; sb &= sb - 1) {
        const std::size_t w =
            s * 64 + static_cast<std::size_t>(std::countr_zero(sb));
        const std::size_t base = w * 64;
        std::uint64_t bits = mask[w];
        mask[w] = 0;
        if (bits == ~std::uint64_t{0}) {
          simd::iota_rows(out_rows + out, static_cast<IndexT>(base), 64);
          simd::dense_copy(out_vals + out, vals + base, 64);
          std::fill_n(vals + base, 64, kIdentity);
          out += 64;
          continue;
        }
        for (; bits != 0; bits &= bits - 1) {
          const std::size_t r =
              base + static_cast<std::size_t>(std::countr_zero(bits));
          out_rows[out] = static_cast<IndexT>(r);
          out_vals[out++] = vals[r];
          vals[r] = kIdentity;
        }
      }
      summary[s] = 0;
    }
  }
  if (counters) counters->dense_touches += inz + out;
  return out;
}

// ---------------------------------------------------------------------------
// ColumnKernel — the uniform per-column dispatch layer
// ---------------------------------------------------------------------------

/// The four column kernels behind one dispatch tag: the unit a ColumnPlan
/// assigns to each column chunk. The per-chunk planner of Method::Auto
/// picks among them; a single-kernel method puts its own kernel on every
/// chunk.
enum class ColumnKernel : std::uint8_t {
  Heap,
  Hash,
  SlidingHash,
  DenseAcc,
};

/// Compile-time form of a ColumnKernel (see with_kernel).
template <ColumnKernel K>
using KernelTag = std::integral_constant<ColumnKernel, K>;

/// Call f(KernelTag<k>{}): the driver switches once per chunk, so every
/// kernel's column loop compiles on its own and no kernel's body bloats
/// another's loop.
template <class F>
void with_kernel(ColumnKernel k, F&& f) {
  switch (k) {
    case ColumnKernel::Heap: f(KernelTag<ColumnKernel::Heap>{}); return;
    case ColumnKernel::Hash: f(KernelTag<ColumnKernel::Hash>{}); return;
    case ColumnKernel::SlidingHash:
      f(KernelTag<ColumnKernel::SlidingHash>{});
      return;
    case ColumnKernel::DenseAcc:
      f(KernelTag<ColumnKernel::DenseAcc>{});
      return;
  }
}

/// Record one planned chunk dispatched to kernel `k`.
inline void count_chunk(OpCounters& counters, ColumnKernel k) {
  switch (k) {
    case ColumnKernel::Heap: ++counters.chunks_heap; break;
    case ColumnKernel::Hash: ++counters.chunks_hash; break;
    case ColumnKernel::SlidingHash: ++counters.chunks_sliding; break;
    case ColumnKernel::DenseAcc: ++counters.chunks_dense; break;
  }
}

/// Per-call constants the uniform kernel interface needs beyond the views
/// themselves: the matrix row count (dense sizing, sliding partitions),
/// the cache-derived sliding table budgets, and the sortedness contract.
template <class IndexT>
struct KernelEnv {
  IndexT rows = 0;
  std::size_t sym_cap = 0;  ///< sliding symbolic entry budget per thread
  std::size_t num_cap = 0;  ///< sliding numeric entry budget per thread
  bool inputs_sorted = true;
  bool sorted_output = true;
};

/// Uniform symbolic phase: nnz of the added column under kernel K.
/// Heap and Hash count with the plain hash symbolic (Alg. 6);
/// sliding hash uses the cache-capped partition (Alg. 7); DenseAcc counts
/// through the occupancy bitmap.
template <ColumnKernel K, class IndexT, class ValueT>
std::size_t kernel_symbolic_column(
    KernelTag<K>, std::span<const ColumnView<IndexT, ValueT>> views,
    const KernelEnv<IndexT>& env, ThreadScratch<IndexT, ValueT>& scratch,
    OpCounters* counters = nullptr) {
  if constexpr (K == ColumnKernel::SlidingHash)
    return sliding_symbolic_column(views, env.rows, env.sym_cap,
                                   env.inputs_sorted, scratch, counters);
  else if constexpr (K == ColumnKernel::DenseAcc)
    return dense_symbolic_column(views, env.rows, scratch.dense, counters);
  else
    return hash_symbolic_column(views, scratch.sym_table, counters);
}

/// Uniform numeric phase: add the column under kernel K into
/// (out_rows, out_vals), which must hold `expected_nnz` entries (the
/// symbolic result). Returns entries written (== expected_nnz).
template <ColumnKernel K, class IndexT, class ValueT>
std::size_t kernel_numeric_column(
    KernelTag<K>, std::span<const ColumnView<IndexT, ValueT>> views,
    std::size_t expected_nnz, const KernelEnv<IndexT>& env,
    ThreadScratch<IndexT, ValueT>& scratch, IndexT* out_rows,
    ValueT* out_vals, OpCounters* counters = nullptr) {
  if constexpr (K == ColumnKernel::Heap) {
    return heap_add_column(views, scratch.heap, out_rows, out_vals,
                           counters);
  } else if constexpr (K == ColumnKernel::Hash) {
    return hash_add_column(views, expected_nnz, scratch.table, out_rows,
                           out_vals, env.sorted_output, counters);
  } else if constexpr (K == ColumnKernel::SlidingHash) {
    return sliding_hash_add_column(views, expected_nnz, env.rows,
                                   env.num_cap, env.inputs_sorted,
                                   env.sorted_output, scratch, out_rows,
                                   out_vals, counters);
  } else {
    return dense_add_column(views, env.rows, scratch.dense, out_rows,
                            out_vals, counters);
  }
}

}  // namespace spkadd::core
