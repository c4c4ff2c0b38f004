// Per-tenant sliding-window aggregation: time as a first-class dimension
// over the streaming SpKAdd accumulator.
//
// A TenantWindow owns a ring of time buckets. Each bucket covers
// `bucket_width` ticks of the caller's (abstract, monotone) time axis and
// is its own core::Accumulator epoch: submit(ts, update) routes the
// update to the bucket owning ts, snapshot(window) folds only the live
// buckets inside the window, and a bucket that ages out of the ring
// retires in O(1) — the bucket (and its accumulator) is simply dropped,
// no subtraction pass ever runs over the aggregate. This is the
// hlld/sliding-HLL set-manager shape (`sparse_size(set, timestamp,
// time_window)`) applied to sparse-matrix aggregation.
//
// Thread-safety contract: a TenantWindow is NOT internally synchronized.
// Exactly one thread may call submit/snapshot/advance_to at a time;
// concurrent callers must hold an external lock (WindowedAggService
// wraps one mutex-guarded TenantWindow per tenant). stats() follows the
// same rule — it reads the same state the mutators write.
//
// Bit-identity guarantee: snapshot(w) is a strict left fold of the live
// bucket partial sums in ascending bucket order via the k-way SpKAdd
// path, and each bucket partial is itself a strict left fold of that
// bucket's updates in submission order. Every SpKAdd kernel accumulates
// equal-row values strictly left to right, so a windowed snapshot is
// bit-identical to a single-threaded reference fold of the same live
// buckets — exactly (independent of submission interleaving) whenever
// value addition is exact, e.g. integer-valued updates. A single-bucket
// window returns that bucket's partial sum unchanged, so it is
// bit-identical to a non-windowed accumulator fed the same stream.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>

#include "core/accumulator.hpp"

namespace spkadd::service {

/// Tuning knobs for one tenant's sliding window.
struct WindowConfig {
  /// Ticks of the caller's time axis covered by one bucket. Timestamps
  /// are abstract unsigned ticks (the daemon forwards client-supplied
  /// ones); bucket b owns ts in [b*bucket_width, (b+1)*bucket_width).
  std::uint64_t bucket_width = 1000;

  /// Ring capacity: how many consecutive buckets stay live. A submit
  /// whose timestamp falls before the oldest live bucket is rejected
  /// (and counted), never folded; buckets older than the newest
  /// live_buckets retire in O(1) when time advances.
  std::size_t live_buckets = 8;

  /// Accumulator fold window per bucket: a hard count bound on owned
  /// slices staged per fold (core::Accumulator batch_capacity, the
  /// paper's §V batch size). The Accumulator's size-ratio trigger needs 8
  /// staged addends, so at 8 or fewer this count alone decides.
  std::size_t batch_window = 8;

  /// SpKAdd options for bucket folds and snapshot assembly. The default
  /// (Method::Auto, sorted output) yields canonical snapshots. A
  /// counters pointer left here is overridden per window (one shared
  /// OpCounters across concurrently-folding tenants would race).
  core::Options options;

  /// Throws std::invalid_argument on an unusable configuration.
  void validate() const;
};

/// Counters of one tenant's window (monotone except live_buckets).
struct WindowStats {
  std::uint64_t accepted = 0;          ///< updates routed to a bucket
  std::uint64_t expired_rejected = 0;  ///< ts older than the live ring
  std::uint64_t buckets_opened = 0;    ///< buckets ever materialized
  std::uint64_t buckets_retired = 0;   ///< buckets dropped on rotation
  std::uint64_t snapshots = 0;         ///< windowed folds served
  /// Accumulator folds performed across live AND retired buckets: the
  /// expiry-is-O(1) observable. Retiring a bucket drops it without any
  /// fold, so rotation never moves this counter.
  std::uint64_t fold_flushes = 0;
  std::size_t live_buckets = 0;     ///< buckets currently materialized
  std::uint64_t newest_bucket = 0;  ///< highest bucket id seen
  /// Max nonzeros awaiting a fold in any one bucket, live or retired —
  /// the window's staging-memory high-water mark.
  std::size_t peak_staged_nnz = 0;
  /// This window's fold work, including the planner's chunk-dispatch mix.
  core::OpCounters counters;
};

/// One tenant's ring of window buckets. External synchronization
/// required (see the file header).
class TenantWindow {
 public:
  using Matrix = CscMatrix<std::int32_t, double>;

  /// Throws std::invalid_argument on an unusable config.
  TenantWindow(std::int32_t rows, std::int32_t cols, WindowConfig config);

  TenantWindow(const TenantWindow&) = delete;
  TenantWindow& operator=(const TenantWindow&) = delete;
  TenantWindow(TenantWindow&&) noexcept = default;

  [[nodiscard]] std::int32_t rows() const { return rows_; }
  [[nodiscard]] std::int32_t cols() const { return cols_; }
  [[nodiscard]] const WindowConfig& config() const { return config_; }

  /// Route `update` to the bucket owning `ts`, advancing the ring when
  /// ts opens a newer bucket (retiring aged-out buckets in O(1)).
  /// Returns false — and counts the update in expired_rejected — when
  /// ts falls before the oldest live bucket; an expired update is never
  /// folded. Throws std::invalid_argument on a non-conformant update.
  bool submit(std::uint64_t ts, Matrix&& update);

  /// Fold the newest `window_buckets` live buckets (0 = the whole live
  /// ring) in ascending bucket order into one sum. Buckets that never
  /// saw an update contribute nothing; an empty window yields the
  /// all-zero rows x cols matrix. Throws std::invalid_argument when
  /// window_buckets exceeds live_buckets.
  [[nodiscard]] Matrix snapshot(std::size_t window_buckets = 0);

  /// Advance the time axis to `ts` without submitting (retires aged-out
  /// buckets exactly as a submit at `ts` would). Lets callers expire
  /// idle tenants on wall-clock ticks.
  void advance_to(std::uint64_t ts);

  [[nodiscard]] WindowStats stats() const;

 private:
  struct Bucket {
    std::uint64_t id;
    std::uint64_t updates = 0;
    core::Accumulator<std::int32_t, double> acc;

    Bucket(std::uint64_t id_, std::int32_t rows, std::int32_t cols,
           const core::Options& opts, std::size_t batch_window)
        : id(id_), acc(rows, cols, opts, batch_window) {}
  };

  [[nodiscard]] std::uint64_t bucket_id(std::uint64_t ts) const {
    return ts / config_.bucket_width;
  }
  /// Oldest bucket id still live given the newest id seen.
  [[nodiscard]] std::uint64_t oldest_live_id() const {
    const auto span = static_cast<std::uint64_t>(config_.live_buckets - 1);
    return newest_id_ >= span ? newest_id_ - span : 0;
  }
  /// Make `id` the newest bucket id and drop aged-out buckets. O(1)
  /// amortized per retired bucket: pop the front of the ring, no fold.
  void rotate_to(std::uint64_t id);
  /// The live bucket owning `id`, materialized on first use (kept in
  /// ascending id order; ids with no updates are never materialized).
  Bucket& bucket_for(std::uint64_t id);

  std::int32_t rows_;
  std::int32_t cols_;
  WindowConfig config_;
  core::OpCounters counters_;  ///< per-window: see WindowConfig::options
  std::deque<Bucket> buckets_;  ///< ascending id; only non-empty ids
  bool have_any_ = false;       ///< any bucket id established yet?
  std::uint64_t newest_id_ = 0;
  std::uint64_t expired_rejected_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t buckets_opened_ = 0;
  std::uint64_t buckets_retired_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t retired_flushes_ = 0;  ///< fold count of dropped buckets
  std::size_t retired_peak_staged_ = 0;  ///< staged peak of dropped buckets
};

}  // namespace spkadd::service
