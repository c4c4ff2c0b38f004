// AggService — a long-lived, sharded, concurrent aggregation service
// over the streaming SpKAdd accumulator.
//
// The paper's SpKAdd kernel exists to serve aggregation-heavy systems:
// distributed SpGEMM stages and sparse gradient aggregation both reduce
// to "many producers keep adding sparse matrices into running sums".
// This subsystem is that system layer:
//
//   submit(tenant, update)              snapshot(tenant)
//        |                                   ^
//        v                                   | k-way SpKAdd over
//   [thread-local burst buffer]              | shard partials
//        |  flushed as ONE enqueue when      |
//        |  full / deadline / drain          |
//        v                                   |
//   [bounded MPMC ingest queue]              |
//        |  high/low watermark hysteresis    |
//        v                                   |
//   worker pool --- pops whole bursts,       |
//     groups slices per shard ---------> shard[(tenant, row-range)]
//                                         each: mutex + streaming
//                                         core::Accumulator folding
//                                         every batch_window slices
//
// The queue, the worker pool, tickets and drain()/stop() are the
// IngestSpine both services share (service/ingest_spine.hpp). This
// class adds the producer side and the fold policy: producers stage
// updates into a thread-local burst buffer and pay one queue-lock
// acquisition per burst instead of one MPMC round-trip per submit; a
// background flusher guarantees a lone update never waits longer than
// flush_deadline_us; workers fold a popped burst's slices grouped per
// shard, so the shard mutex too is taken once per burst.
//
// Guarantees:
//   * Backpressure, not OOM: at most queue_capacity updates (plus one
//     burst buffer per producer thread) are in flight; submit() blocks
//     once the queue is throttled.
//   * All-or-nothing updates: a worker applies every slice of an update
//     under a tenant-level shared lock, so a snapshot (unique lock)
//     never observes half an update — the epoch-consistent cut. Invalid
//     traffic (unsorted columns under inputs_sorted) is rejected before
//     any slice is staged, so dropped updates are all-or-nothing too.
//     The one documented exception: a fold that throws mid-update for
//     environmental reasons (allocation failure) can leave that update
//     partially applied; it is counted in ServiceStats::apply_errors,
//     which operators should treat as "running sums are suspect".
//   * Snapshots don't stall ingest: submit() keeps accepting into the
//     queue and other tenants keep folding while one tenant assembles.
//   * Deterministic totals: shard slices partition each update's
//     entries, so the final sum's structure is the union of all update
//     structures and each value is the sum of that entry's
//     contributions — bit-identical to one-shot core::spkadd whenever
//     value addition is exact (e.g. integer-valued gradients),
//     regardless of producer/worker interleaving. Per-producer
//     submission order is preserved end to end (buffer -> burst ->
//     per-shard fold), so the single-producer/single-worker/one-shard
//     configuration folds in exact submission order.
//
// The shape mirrors long-lived counter services (cf. the hlld-style
// set-manager architecture): sharded state behind short locks, bounded
// ingest, snapshot reads, explicit drain/stop shutdown.
//
// Thread-safety contract: every public AggService method is safe to
// call from any thread, concurrently with every other (submit from any
// number of producers, snapshot/stats/drain from readers, stop once
// from anywhere — stop is idempotent). The "Deterministic totals"
// bullet above is the bit-identity guarantee snapshot() honors.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/ingest_spine.hpp"
#include "service/service_config.hpp"
#include "service/service_stats.hpp"
#include "service/shard.hpp"

namespace spkadd::service {

class AggService {
 public:
  using Matrix = CscMatrix<std::int32_t, double>;

  /// A consistent view of one tenant's running sum.
  struct Snapshot {
    Matrix sum;
    std::uint64_t epoch = 0;            ///< snapshot sequence number
    std::uint64_t updates_applied = 0;  ///< updates folded in by then
  };

  /// Starts the worker pool (and the burst flusher) immediately. Throws
  /// std::invalid_argument on an unusable config.
  explicit AggService(ServiceConfig config);

  /// Stops the service (drains staged bursts and the queue backlog).
  ~AggService();

  AggService(const AggService&) = delete;
  AggService& operator=(const AggService&) = delete;

  /// Stage one update for `tenant` into this thread's burst buffer,
  /// blocking (backpressure) only when the buffer flush finds the
  /// ingest queue throttled. The tenant is created on first submit with
  /// the update's shape; later updates must be conformant (throws
  /// std::invalid_argument otherwise). Returns false — and counts the
  /// update as rejected — once the service is stopped. An update
  /// accepted concurrently with stop() may still be dropped and counted
  /// in ServiceStats::rejected.
  bool submit(const std::string& tenant, Matrix update);

  /// Non-blocking submit: false when the service is stopped or the
  /// ingest path is saturated (burst buffer full and the queue
  /// throttled, or a deadline flush of this thread's buffer is in
  /// flight); the update is untouched on failure so open-loop load
  /// generators can count the drop and keep their schedule.
  bool try_submit(const std::string& tenant, Matrix&& update);

  /// Assemble a consistent full-matrix view of `tenant`'s running sum
  /// via a k-way SpKAdd over the shard partials, advance the tenant's
  /// epoch, and return it. In-queue updates are not waited for; every
  /// applied update is included in full. Throws std::invalid_argument
  /// for an unknown tenant.
  Snapshot snapshot(const std::string& tenant);

  /// Flush every producer's staged burst, then block until every update
  /// accepted by then has been folded into its shards (or dropped by a
  /// throwing fold — see ServiceStats::apply_errors).
  void drain();

  /// Stop accepting updates, flush staged bursts, fold the queued
  /// backlog, join the flusher and workers. Idempotent;
  /// snapshot()/stats() remain usable afterwards.
  void stop();

  /// Aggregate counters across the queue, shards and tenants.
  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  struct Task {
    std::string tenant;
    Matrix update;
    std::chrono::steady_clock::time_point submitted;
    std::uint64_t ticket = 0;  ///< issued by the spine; drives drain()
  };

  /// One producer thread's staging area: tasks accumulate here and are
  /// flushed into the ingest queue as a single burst. `mutex` serializes
  /// the owning producer with the deadline flusher and drain/stop
  /// sweeps; flushes happen entirely under it so per-producer FIFO
  /// order survives every flush path.
  struct BurstBuffer {
    std::mutex mutex;
    std::vector<Task> tasks;
    std::chrono::steady_clock::time_point oldest{};  ///< staging of tasks[0]
  };

  enum class FlushReason { kFull, kDeadline, kDrain };

  struct Tenant {
    Tenant(std::int32_t rows, std::int32_t cols,
           const ServiceConfig& cfg);

    RowPartition partition;
    /// shared: workers applying an update's slices; unique: snapshot.
    /// This is what makes updates all-or-nothing vs. readers.
    std::shared_mutex apply_mutex;
    std::deque<TenantShard> shards;  ///< deque: TenantShard is pinned
    std::atomic<std::uint64_t> updates_applied{0};
    std::atomic<std::uint64_t> snapshots{0};
    std::atomic<std::uint64_t> epoch{0};
  };

  /// Look up or create `name`; throws when its shape differs.
  Tenant& tenant_for(const std::string& name, const Matrix& update);
  /// This thread's burst buffer for THIS service instance (created and
  /// registered on first use).
  BurstBuffer& local_buffer();
  /// Flush `buf`'s staged tasks into the queue as one burst. The caller
  /// holds buf.mutex. Blocking flushes push everything unless the queue
  /// closes mid-burst (the spine retires the leftover as rejected).
  /// Non-blocking flushes are all-or-nothing and leave the tasks staged
  /// on a saturated queue. Returns true iff the buffer is empty
  /// afterwards.
  bool flush_locked(BurstBuffer& buf, FlushReason reason, bool blocking);
  void flush_all_buffers(FlushReason reason);
  void flusher_loop();
  /// The fold policy the spine's workers run on each popped burst:
  /// apply every tenant group with one shard-lock acquisition per
  /// shard, then record submit -> applied latency.
  FoldCounts fold_burst(std::vector<Task>& burst);
  void apply_group(std::vector<Task>& burst,
                   const std::vector<std::size_t>& group,
                   std::vector<unsigned char>& ok);

  ServiceConfig config_;
  TenantRegistry<Tenant> tenants_{"AggService"};

  // Burst buffers of every producer thread that ever submitted here;
  // the flusher and drain/stop sweep them. shared_ptr so a producer's
  // cached reference (a thread_local weak_ptr in local_buffer())
  // expires with the service.
  mutable std::mutex buffers_mutex_;
  std::vector<std::shared_ptr<BurstBuffer>> buffers_;

  std::mutex flusher_mutex_;
  std::condition_variable flusher_cv_;
  bool flusher_stop_ = false;  ///< guarded by flusher_mutex_

  /// Pushed flushes per FlushReason (IngestStats), relaxed: statistics.
  std::array<std::atomic<std::uint64_t>, 3> flushes_{};

  /// submit -> applied, nanoseconds (lock-free recording).
  LatencyHistogram latency_;

  // Queue, workers, tickets and burst counters. Declared after
  // everything fold_burst reads, so its workers start last.
  IngestSpine<Task> spine_;
  std::thread flusher_;  ///< deadline flushes; joined in stop()

  /// Exports the spine's families plus the shard and tenant counters.
  void export_metrics(obs::CollectorSink& sink) const;

  // LAST member: destroyed first, and its dtor blocks until no render
  // can still be invoking export_metrics on this instance.
  obs::CollectorHandle collector_;
};

}  // namespace spkadd::service
