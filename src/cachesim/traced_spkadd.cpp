#include "cachesim/traced_spkadd.hpp"

#include <algorithm>
#include <vector>

#include "core/column_kernels.hpp"
#include "core/workspace.hpp"
#include "util/bit_ops.hpp"

namespace spkadd::cachesim {
namespace {

using Csc = CscMatrix<std::int32_t, double>;
using View = ColumnView<std::int32_t, double>;

// Synthetic address layout: widely separated regions so streams never alias.
constexpr std::uint64_t kInputBase = 0x1000'0000ull;
constexpr std::uint64_t kInputStride = 0x4000'0000ull;  // per input matrix
constexpr std::uint64_t kTableBase = 0x8000'0000'0000ull;
constexpr std::uint64_t kSortBase = 0xD000'0000'0000ull;  // radix pair scratch
constexpr std::uint64_t kOutputBase = 0xF000'0000'0000ull;

constexpr std::uint64_t kSymEntryBytes = sizeof(std::int32_t);          // 4
constexpr std::uint64_t kAddEntryBytes =
    sizeof(std::int32_t) + sizeof(double);                              // 12

/// Per-thread view of the hierarchy: private levels keep their capacity,
/// shared levels (the LLC) are divided by the simulated thread count.
HierarchySpec per_thread_share(const HierarchySpec& spec, int threads) {
  HierarchySpec share = spec;
  const auto T = static_cast<std::uint64_t>(std::max(1, threads));
  for (LevelSpec& level : share.levels) {
    if (!level.shared) continue;
    level.bytes = std::max<std::uint64_t>(
        level.bytes / T,
        static_cast<std::uint64_t>(level.line_bytes) *
            static_cast<std::uint64_t>(level.ways));
  }
  // Division can break strict capacity growth (e.g. 48 threads sharing a
  // 32MB LLC behind a 1MB private L2). Keep the outermost level of any
  // non-increasing run: its misses go to memory, the count Table V
  // reports, so the swallowed inner level is the one to drop.
  std::vector<LevelSpec> kept;
  for (auto it = share.levels.rbegin(); it != share.levels.rend(); ++it)
    if (kept.empty() || it->bytes < kept.back().bytes) kept.push_back(*it);
  share.levels.assign(kept.rbegin(), kept.rend());
  return share;
}

/// One simulated thread's table-entry budget (Alg. 7/8 line 3 rearranged)
/// from the *shared* capacity of the outermost level.
std::size_t entry_cap(std::uint64_t shared_bytes, int threads,
                      std::size_t max_table_entries,
                      std::uint64_t entry_bytes) {
  if (max_table_entries != 0)
    return std::max<std::size_t>(max_table_entries, 8);
  // Factor 2 mirrors core::detail::table_entry_cap: tables allocate 2x the
  // key count for the <= 0.5 load factor.
  const std::size_t cap = static_cast<std::size_t>(
      shared_bytes /
      (2 * entry_bytes * static_cast<std::uint64_t>(std::max(1, threads))));
  return std::max<std::size_t>(cap, 8);
}

/// Streaming read of `count` input entries of one matrix's column starting
/// at in-matrix entry offset `first`.
void stream_input(CacheHierarchy& cache, std::size_t matrix_id,
                  std::size_t first, std::size_t count,
                  std::uint64_t entry_bytes) {
  const std::uint64_t base = kInputBase + kInputStride * matrix_id;
  cache.access_range(base + entry_bytes * first, entry_bytes * count);
}

/// Trace Alg. 6 on one set of (sub)columns; returns distinct-row count.
/// `table` provides real collision behaviour; slot touches go to the cache.
std::size_t trace_symbolic_part(CacheHierarchy& cache,
                                std::span<const View> views,
                                std::span<const std::size_t> matrix_ids,
                                std::span<const std::size_t> entry_offsets,
                                core::SymbolicHashWorkspace<std::int32_t>&
                                    table) {
  std::size_t inz = 0;
  for (const auto& v : views) inz += v.nnz();
  if (inz == 0) return 0;
  const std::size_t entries = core::hash_table_entries(inz);
  table.reset(entries);
  // Table initialization sweeps the table once.
  cache.access_range(kTableBase, entries * kSymEntryBytes);

  std::size_t nz = 0;
  for (std::size_t s = 0; s < views.size(); ++s) {
    const View& v = views[s];
    stream_input(cache, matrix_ids[s], entry_offsets[s], v.nnz(),
                 kSymEntryBytes);
    for (std::size_t i = 0; i < v.nnz(); ++i) {
      const std::int32_t r = v.rows[i];
      std::size_t h = core::hash_index(r, table.mask);
      for (;;) {
        cache.access(kTableBase + h * kSymEntryBytes);
        if (table.keys[h] ==
            core::SymbolicHashWorkspace<std::int32_t>::kEmpty) {
          table.keys[h] = r;
          ++nz;
          break;
        }
        if (table.keys[h] == r) break;
        h = (h + 1) & table.mask;
      }
    }
  }
  return nz;
}

/// Trace Alg. 5 on one set of (sub)columns; returns entries emitted.
std::size_t trace_add_part(CacheHierarchy& cache, std::span<const View> views,
                           std::span<const std::size_t> matrix_ids,
                           std::span<const std::size_t> entry_offsets,
                           std::size_t expected, std::size_t out_cursor,
                           core::SymbolicHashWorkspace<std::int32_t>& table) {
  if (expected == 0) return 0;
  const std::size_t entries = core::hash_table_entries(expected);
  table.reset(entries);
  cache.access_range(kTableBase, entries * kAddEntryBytes);

  std::size_t emitted = 0;
  for (std::size_t s = 0; s < views.size(); ++s) {
    const View& v = views[s];
    stream_input(cache, matrix_ids[s], entry_offsets[s], v.nnz(),
                 kAddEntryBytes);
    for (std::size_t i = 0; i < v.nnz(); ++i) {
      const std::int32_t r = v.rows[i];
      std::size_t h = core::hash_index(r, table.mask);
      for (;;) {
        cache.access(kTableBase + h * kAddEntryBytes);
        if (table.keys[h] ==
            core::SymbolicHashWorkspace<std::int32_t>::kEmpty) {
          table.keys[h] = r;
          ++emitted;
          break;
        }
        if (table.keys[h] == r) break;
        h = (h + 1) & table.mask;
      }
    }
  }
  // Output sweep: read the table once more, write the emitted run.
  cache.access_range(kTableBase, entries * kAddEntryBytes);
  const std::uint64_t out_base = kOutputBase + out_cursor * kAddEntryBytes;
  cache.access_range(out_base, emitted * kAddEntryBytes);
  // The real kernel then radix-sorts the emitted (row, value) pairs
  // (util::radix_sort_pairs — every kernel emits canonical sorted
  // columns): below the insertion-sort threshold the run is touched once
  // more in place; above it, one key-histogram sweep plus one
  // read + scatter-write pass of the 12-byte pairs per key byte that
  // actually varies across the run, ping-ponging with a pair scratch
  // buffer, with a copy-back when the last pass lands in scratch.
  if (emitted >= 2) {
    if (emitted < 96) {
      cache.access_range(out_base, emitted * kAddEntryBytes);
    } else {
      std::uint32_t vary = 0;
      std::int32_t first = core::SymbolicHashWorkspace<std::int32_t>::kEmpty;
      for (std::size_t h = 0; h < entries; ++h) {
        const std::int32_t key = table.keys[h];
        if (key == core::SymbolicHashWorkspace<std::int32_t>::kEmpty) continue;
        if (first == core::SymbolicHashWorkspace<std::int32_t>::kEmpty)
          first = key;
        vary |= static_cast<std::uint32_t>(key ^ first);
      }
      cache.access_range(out_base, emitted * kAddEntryBytes);  // histogram
      std::uint64_t src = out_base;
      std::uint64_t dst = kSortBase;
      for (std::size_t b = 0; b < sizeof(std::int32_t); ++b) {
        if (((vary >> (8 * b)) & 0xffu) == 0) continue;
        cache.access_range(src, emitted * kAddEntryBytes);
        cache.access_range(dst, emitted * kAddEntryBytes);
        std::swap(src, dst);
      }
      if (src != out_base) {
        cache.access_range(src, emitted * kAddEntryBytes);
        cache.access_range(out_base, emitted * kAddEntryBytes);
      }
    }
  }
  return emitted;
}

struct ColumnViews {
  std::vector<View> views;
  std::vector<std::size_t> matrix_ids;
  /// In-matrix entry index of each view start.
  std::vector<std::size_t> entry_offsets;

  void gather(std::span<const Csc> inputs, std::int32_t j) {
    views.clear();
    matrix_ids.clear();
    entry_offsets.clear();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      auto col = inputs[i].column(j);
      if (col.empty()) continue;
      views.push_back(col);
      matrix_ids.push_back(i);
      entry_offsets.push_back(static_cast<std::size_t>(
          inputs[i].col_ptr()[static_cast<std::size_t>(j)]));
    }
  }

  /// Restrict to a row range (binary search; offsets adjusted).
  void restrict_rows(const ColumnViews& full, std::int32_t r1,
                     std::int32_t r2) {
    views.clear();
    matrix_ids.clear();
    entry_offsets.clear();
    for (std::size_t s = 0; s < full.views.size(); ++s) {
      const View& v = full.views[s];
      auto sub = v.row_range(r1, r2);
      if (sub.empty()) continue;
      views.push_back(sub);
      matrix_ids.push_back(full.matrix_ids[s]);
      entry_offsets.push_back(full.entry_offsets[s] +
                              static_cast<std::size_t>(sub.rows.data() -
                                                       v.rows.data()));
    }
  }
};

/// The two-phase replay: symbolic over all columns (sliding partition when
/// a sliding column's table overflows its cap, plain hash symbolic
/// otherwise — mirroring core::kernel_symbolic_column), then the numeric
/// phase. Stats are snapshotted per phase from the hierarchy.
TraceResult trace_through(std::span<const Csc> inputs,
                          const HierarchySpec& share, bool sliding,
                          std::size_t sym_cap, std::size_t add_cap) {
  TraceResult result;
  CacheHierarchy cache(share);
  for (const LevelSpec& l : share.levels)
    result.level_names.push_back(l.name);
  result.symbolic.resize(share.levels.size());
  result.numeric.resize(share.levels.size());
  if (inputs.empty()) return result;

  const std::int32_t cols = inputs[0].cols();
  const std::int32_t rows = inputs[0].rows();

  core::SymbolicHashWorkspace<std::int32_t> table;
  ColumnViews full, part;
  std::vector<std::size_t> out_nnz(static_cast<std::size_t>(cols), 0);

  // ---- Symbolic phase over all columns ----
  for (std::int32_t j = 0; j < cols; ++j) {
    full.gather(inputs, j);
    std::size_t inz = 0;
    for (const auto& v : full.views) inz += v.nnz();
    if (inz == 0) continue;
    const std::size_t parts = sliding ? util::ceil_div(inz, sym_cap) : 1;
    std::size_t nz = 0;
    if (parts <= 1) {
      nz = trace_symbolic_part(cache, full.views, full.matrix_ids,
                               full.entry_offsets, table);
    } else {
      for (std::size_t p = 0; p < parts; ++p) {
        const auto r1 = static_cast<std::int32_t>(
            static_cast<std::size_t>(rows) * p / parts);
        const auto r2 = static_cast<std::int32_t>(
            static_cast<std::size_t>(rows) * (p + 1) / parts);
        part.restrict_rows(full, r1, r2);
        nz += trace_symbolic_part(cache, part.views, part.matrix_ids,
                                  part.entry_offsets, table);
      }
    }
    out_nnz[static_cast<std::size_t>(j)] = nz;
  }
  result.symbolic = cache.stats();
  cache.reset_stats();

  // ---- Numeric phase over all columns ----
  std::size_t out_cursor = 0;
  for (std::int32_t j = 0; j < cols; ++j) {
    const std::size_t onz = out_nnz[static_cast<std::size_t>(j)];
    if (onz == 0) continue;
    full.gather(inputs, j);
    const std::size_t parts = sliding ? util::ceil_div(onz, add_cap) : 1;
    if (parts <= 1) {
      out_cursor += trace_add_part(cache, full.views, full.matrix_ids,
                                   full.entry_offsets, onz, out_cursor, table);
      continue;
    }
    for (std::size_t p = 0; p < parts; ++p) {
      const auto r1 = static_cast<std::int32_t>(
          static_cast<std::size_t>(rows) * p / parts);
      const auto r2 = static_cast<std::int32_t>(
          static_cast<std::size_t>(rows) * (p + 1) / parts);
      part.restrict_rows(full, r1, r2);
      std::size_t part_in = 0;
      for (const auto& v : part.views) part_in += v.nnz();
      if (part_in == 0) continue;
      // Mirror sliding_hash_add_column: keys-only symbolic over the part,
      // then an output-sized numeric table (see core/column_kernels.hpp).
      const std::size_t part_onz =
          trace_symbolic_part(cache, part.views, part.matrix_ids,
                              part.entry_offsets, table);
      out_cursor +=
          trace_add_part(cache, part.views, part.matrix_ids,
                         part.entry_offsets, part_onz, out_cursor, table);
    }
  }
  result.numeric = cache.stats();
  return result;
}

}  // namespace

TraceResult trace_spkadd(std::span<const Csc> inputs,
                         const TraceConfig& config) {
  config.hierarchy.validate();
  // The M of the Alg. 7/8 table-sizing rule: the outermost shared
  // capacity of the undivided hierarchy.
  const std::uint64_t shared_bytes = config.hierarchy.levels.back().bytes;
  const std::size_t sym_cap =
      entry_cap(shared_bytes, config.threads, config.max_table_entries,
                kSymEntryBytes);
  const std::size_t add_cap =
      entry_cap(shared_bytes, config.threads, config.max_table_entries,
                kAddEntryBytes);
  return trace_through(inputs, per_thread_share(config.hierarchy,
                                                config.threads),
                       config.sliding, sym_cap, add_cap);
}

}  // namespace spkadd::cachesim
