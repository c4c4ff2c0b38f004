// Observability for the aggregation services: the plain snapshot structs
// AggService::stats() hands to benches and operators, SpineStats, the
// ingest-spine part WindowedServiceStats shares, and export_chunk_mix,
// which both services' scrapes call. The latency histogram itself lives
// in obs/histogram.hpp (LatencyHistogram below is an alias), and the
// services export these counters through obs::MetricsRegistry at scrape
// time — stats() and the registry read the same underlying atomics.
//
// Thread-safety contract: the snapshot structs are plain values with no
// synchronization of their own. Counters here are observability only —
// they never feed the fold paths, so they cannot affect the service's
// bit-identity guarantee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

namespace spkadd::service {

/// Percentile digest of a latency population, in seconds.
using LatencySummary = obs::LatencySummary;

/// Fixed-footprint log-scale nanosecond histogram (see obs/histogram.hpp
/// for the bucket layout and the Prometheus bucket-iteration API).
using LatencyHistogram = obs::LogHistogram;

/// Per-row-range-shard counters, aggregated over all tenants.
struct ShardStats {
  std::uint64_t slices_applied = 0;  ///< update slices folded here
  std::uint64_t folded_nnz = 0;      ///< total nonzeros folded here
  std::uint64_t flushes = 0;         ///< Accumulator folds performed
  std::size_t peak_staged_nnz = 0;   ///< max nnz awaiting a fold at once
  /// This shard's fold work, including the planner's chunk-dispatch mix.
  core::OpCounters counters;
  // Representation adaptivity (core::DensePolicy): sparse→dense column
  // promotions and demotions performed by this shard's accumulators, and
  // the columns currently held dense across them (a gauge, not a counter).
  std::uint64_t dense_promotions = 0;
  std::uint64_t dense_demotions = 0;
  std::size_t dense_resident_cols = 0;
};

/// The ingest spine's counters (service/ingest_spine.hpp), the part
/// both services' stats structs share.
struct SpineStats {
  std::uint64_t submitted = 0;  ///< updates accepted into the queue
  std::uint64_t applied = 0;    ///< updates fully folded
  std::uint64_t rejected = 0;   ///< updates refused (service stopped)
  /// Updates dropped because their fold threw (e.g. a merge-family
  /// method fed unsorted columns); the service survives and keeps
  /// serving — drain() counts these as progressed.
  std::uint64_t apply_errors = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_high_water = 0;  ///< deepest ingest backlog seen
  std::uint64_t bursts = 0;          ///< burst pushes into the queue
  std::uint64_t burst_updates = 0;   ///< updates across those bursts
  std::size_t max_burst = 0;         ///< largest single burst pushed
  std::uint64_t throttle_events = 0;  ///< pushes blocked at high watermark
  double throttle_seconds = 0;  ///< total producer time spent throttled

  /// Mean updates per burst (the amortization factor actually realized:
  /// every queue-lock acquisition covered this many updates).
  [[nodiscard]] double avg_burst() const {
    return bursts != 0
               ? static_cast<double>(burst_updates) /
                     static_cast<double>(bursts)
               : 0.0;
  }
};

/// Why AggService's producer burst buffers were flushed.
struct IngestStats {
  std::uint64_t flushes_full = 0;      ///< buffer reached burst_size
  std::uint64_t flushes_deadline = 0;  ///< background deadline sweeps
  std::uint64_t flushes_drain = 0;     ///< drain()/stop() sweeps
};

/// Per-tenant counters.
struct TenantStats {
  std::string tenant;
  std::uint64_t updates_applied = 0;
  std::uint64_t folded_nnz = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t epoch = 0;  ///< epoch of the latest snapshot
};

/// Emit the planner's chunk-dispatch mix in `c` as
/// spkadd_hybrid_chunks_total, one series per kernel, under the label
/// service=`service`.
inline void export_chunk_mix(obs::CollectorSink& sink, const char* service,
                             const core::OpCounters& c) {
  const std::pair<const char*, std::uint64_t> mix[] = {
      {"heap", c.chunks_heap},
      {"hash", c.chunks_hash},
      {"sliding", c.chunks_sliding},
      {"dense", c.chunks_dense}};
  for (const auto& [kernel, chunks] : mix)
    sink.counter("spkadd_hybrid_chunks_total",
                 "Planned column chunks dispatched per kernel",
                 {{"service", service}, {"kernel", kernel}},
                 static_cast<double>(chunks));
}

/// One consistent-enough read of every AggService counter.
struct ServiceStats : SpineStats {
  IngestStats ingest;      ///< burst-buffer flush reasons
  LatencySummary latency;  ///< submit -> applied
  std::vector<ShardStats> shards;
  std::vector<TenantStats> tenants;
};

}  // namespace spkadd::service
