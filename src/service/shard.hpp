// Row-range sharding for the aggregation service.
//
// A shard owns one contiguous row range of a tenant's matrix. Incoming
// updates are partitioned into per-shard slices (full-shape matrices
// whose entries all fall inside the shard's range), so the shard
// accumulators hold *disjoint* structures and a tenant snapshot is just
// a k-way SpKAdd over the shard partials — every nonzero of the
// assembled sum comes from exactly one shard, which is what makes the
// sharded fold bit-identical to a one-shot spkadd whenever value
// addition is exact — the bit-identity guarantee AggService builds on.
//
// Thread-safety contract: partition_rows and RowPartition are pure
// functions over caller-owned data, safe from any thread. A Shard is
// externally synchronized — callers take Shard::mutex around fold and
// partial access (AggService holds it once per (burst, shard)).
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "core/accumulator.hpp"

namespace spkadd::service {

/// Uniform split of [0, rows) into `shards` contiguous chunks.
struct RowPartition {
  std::int32_t rows = 0;
  std::int32_t chunk = 1;  ///< rows per shard (last shard may be short)
  std::size_t shards = 1;

  static RowPartition make(std::int32_t rows, std::size_t shards) {
    RowPartition p;
    p.rows = rows;
    p.shards = shards;
    const auto s = static_cast<std::int32_t>(shards);
    p.chunk = rows > 0 ? (rows + s - 1) / s : 1;
    if (p.chunk < 1) p.chunk = 1;
    return p;
  }

  [[nodiscard]] std::size_t shard_of(std::int32_t row) const {
    const auto s = static_cast<std::size_t>(row / chunk);
    return s < shards ? s : shards - 1;
  }

  /// Half-open row range [lo, hi) owned by shard `s`.
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> range(
      std::size_t s) const {
    const auto lo = static_cast<std::int32_t>(s) * chunk;
    const auto hi = lo + chunk;
    return {lo < rows ? lo : rows, hi < rows ? hi : rows};
  }
};

/// Split `m` into one full-shape slice per shard; slice s holds exactly
/// the entries whose row falls in partition range s, in their original
/// within-column order (so sorted inputs yield sorted slices). One
/// O(nnz + shards * cols) pass; entry values are preserved bit-exactly.
template <class IndexT, class ValueT>
std::vector<CscMatrix<IndexT, ValueT>> partition_rows(
    const CscMatrix<IndexT, ValueT>& m, const RowPartition& p) {
  const std::size_t S = p.shards;
  const auto cols = static_cast<std::size_t>(m.cols());
  const auto col_ptr = m.col_ptr();
  const auto row_idx = m.row_idx();
  const auto values = m.values();

  // Per-(shard, column) entry counts.
  std::vector<std::vector<IndexT>> counts(
      S, std::vector<IndexT>(cols + 1, 0));
  for (std::size_t j = 0; j < cols; ++j) {
    const auto lo = static_cast<std::size_t>(col_ptr[j]);
    const auto hi = static_cast<std::size_t>(col_ptr[j + 1]);
    for (std::size_t i = lo; i < hi; ++i)
      ++counts[p.shard_of(static_cast<std::int32_t>(row_idx[i]))][j + 1];
  }
  std::vector<CscMatrix<IndexT, ValueT>> out;
  out.reserve(S);
  std::vector<std::vector<IndexT>> cursor(S);
  for (std::size_t s = 0; s < S; ++s) {
    auto& cp = counts[s];
    for (std::size_t j = 0; j < cols; ++j) cp[j + 1] += cp[j];
    CscMatrix<IndexT, ValueT> slice(m.rows(), m.cols());
    slice.set_structure(cp);  // copies cp; cp stays usable as cursor base
    out.push_back(std::move(slice));
    cursor[s] = std::move(counts[s]);
  }
  for (std::size_t j = 0; j < cols; ++j) {
    const auto lo = static_cast<std::size_t>(col_ptr[j]);
    const auto hi = static_cast<std::size_t>(col_ptr[j + 1]);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t s =
          p.shard_of(static_cast<std::int32_t>(row_idx[i]));
      const auto dst = static_cast<std::size_t>(cursor[s][j]++);
      out[s].mutable_row_idx()[dst] = row_idx[i];
      out[s].mutable_values()[dst] = values[i];
    }
  }
  return out;
}

/// One row-range shard of one tenant: a mutex-guarded streaming
/// accumulator plus the counters ServiceStats aggregates. Each shard
/// owns its OpCounters and points its accumulator's fold options at
/// them (folds run under `mutex`, so the per-call counter contract
/// holds), making the planner's per-chunk kernel mix — and the fold work
/// counters generally — observable per shard. A counters pointer the
/// caller left in `opts` is overridden: one shared OpCounters across
/// concurrent shard folds would be a data race.
struct TenantShard {
  TenantShard(std::int32_t rows, std::int32_t cols,
              const core::Options& opts, std::size_t batch_window)
      : acc(rows, cols, with_counters(opts, &counters), batch_window) {}

  std::mutex mutex;
  core::OpCounters counters;  ///< fold work + planner chunk-dispatch mix
  core::Accumulator<std::int32_t, double> acc;
  std::uint64_t slices_applied = 0;
  std::uint64_t folded_nnz = 0;

 private:
  static core::Options with_counters(core::Options opts,
                                     core::OpCounters* c) {
    opts.counters = c;
    return opts;
  }
};

}  // namespace spkadd::service
