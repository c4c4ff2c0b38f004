// WindowedAggService — the multi-tenant, concurrent front of the
// sliding-window aggregation layer (service/window.hpp), and the
// backend the network daemon (net/server.hpp) serves.
//
//   submit(tenant, ts, update)        snapshot(tenant, window)
//        |                                  ^
//        v                                  | strict left fold of the
//   [bounded MPMC ingest queue]             | live window buckets
//        |  burst push/pop: the net         | (k-way SpKAdd)
//        |  server stages one poll          |
//        v  cycle's submits as ONE burst    |
//   worker pool --- pops whole bursts,      |
//     groups per tenant ------------> tenant's TenantWindow
//                                     (mutex + one Accumulator
//                                      epoch per live time bucket)
//
// Ingest runs on the IngestSpine AggService also uses
// (service/ingest_spine.hpp: the burst-batched MPMC queue with
// watermark hysteresis, the worker pool, per-burst tickets behind
// drain(), close-and-join in stop()): producers — the daemon's poll
// loop above all — enqueue a whole burst of timestamped updates with
// one queue-lock acquisition. This class is the fold policy on top:
// workers fold a popped burst's updates grouped per tenant with one
// tenant-lock acquisition per (burst, tenant), count expiries, and
// record trace spans into obs::Tracer::global().
//
// Thread-safety contract: every public method is safe to call from any
// thread, concurrently with every other. Internally each tenant's
// TenantWindow is guarded by its own mutex (folds and snapshots of
// different tenants never contend); a drain covers exactly the updates
// accepted before it.
//
// Bit-identity guarantee: worker folds and snapshot assembly go through
// the same strict-left-fold SpKAdd paths as TenantWindow documents, so
// snapshot(tenant, w) is bit-identical to a single-threaded reference
// fold of the live buckets — exactly (independent of producer/worker
// interleaving) whenever value addition is exact, e.g. integer-valued
// updates. bench/bench_daemon.cpp re-verifies this over live sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/ingest_spine.hpp"
#include "service/service_stats.hpp"
#include "service/window.hpp"

namespace spkadd::service {

/// Aggregate counters for the windowed service (see also WindowStats);
/// `applied` counts updates folded into a bucket.
struct WindowedServiceStats : SpineStats {
  std::uint64_t expired = 0;  ///< updates rejected as expired at fold
  std::uint64_t snapshots = 0;
  /// Per-tenant window counters, keyed by tenant name.
  std::vector<std::pair<std::string, WindowStats>> tenants;
};

class WindowedAggService {
 public:
  using Matrix = CscMatrix<std::int32_t, double>;

  struct Config {
    WindowConfig window;            ///< applied to every tenant
    std::size_t workers = 2;        ///< ingest worker threads
    std::size_t queue_capacity = 256;
    std::size_t burst_size = 16;    ///< max updates per worker pop
    /// Watermark hysteresis (0 defaults: high = capacity, low = 3/4).
    std::size_t queue_high_watermark = 0;
    std::size_t queue_low_watermark = 0;
    /// Registry this service exports its counters and per-tenant
    /// window gauges into (a scrape-time collector — hot paths never
    /// touch it). nullptr disables the export; stats() is unaffected.
    obs::MetricsRegistry* metrics = &obs::default_registry();
  };

  /// One timestamped update, the unit the ingest queue carries. The
  /// daemon's poll loop builds a vector of these per poll cycle and
  /// hands it to submit_burst as one enqueue.
  struct TimedUpdate {
    std::string tenant;
    std::uint64_t timestamp = 0;
    Matrix update;
    /// Trace context this update carries through the pipeline (inactive
    /// by default — aggregate-initializing the three data fields keeps
    /// it inactive, costing one branch per tracer call).
    obs::OpTrace trace;
  };

  /// A consistent windowed view of one tenant's aggregate.
  struct Snapshot {
    Matrix sum;
    std::uint64_t epoch = 0;  ///< per-tenant snapshot sequence number
    std::uint64_t updates_applied = 0;  ///< updates folded in by then
  };

  /// Starts the worker pool immediately. Throws std::invalid_argument
  /// on an unusable config.
  explicit WindowedAggService(Config config);
  ~WindowedAggService();

  WindowedAggService(const WindowedAggService&) = delete;
  WindowedAggService& operator=(const WindowedAggService&) = delete;

  /// Enqueue one timestamped update (blocking at the queue's high
  /// watermark — backpressure). The tenant is created on first submit
  /// with the update's shape; later updates must be conformant (throws
  /// std::invalid_argument otherwise). Returns false — counting the
  /// update as rejected — once the service is stopped. Whether the
  /// update lands in a bucket or expires is decided at fold time and
  /// surfaces in stats().
  bool submit(const std::string& tenant, std::uint64_t ts, Matrix&& update);

  /// Enqueue a whole burst with one queue-lock acquisition (the net
  /// server's per-poll-cycle entry point). Tenants are created/checked
  /// for every update BEFORE anything is enqueued; a shape mismatch
  /// throws and leaves the burst untouched. Returns the number of
  /// updates accepted (fewer than burst.size() only when the service
  /// stopped mid-push; the unpushed tail is counted rejected).
  /// `burst` is emptied of everything accepted.
  std::size_t submit_burst(std::vector<TimedUpdate>& burst);

  /// Fold the newest `window_buckets` live buckets (0 = the whole live
  /// ring) of `tenant` into one sum. In-queue updates are not waited
  /// for — call drain() first for an exact cut. Throws
  /// std::invalid_argument for an unknown tenant or an oversized
  /// window.
  Snapshot snapshot(const std::string& tenant, std::size_t window_buckets);

  /// Block until every update accepted by now has been folded (or
  /// rejected as expired / dropped by a throwing fold).
  void drain();

  /// Stop accepting updates, fold the queued backlog, join the
  /// workers. Idempotent; snapshot()/stats() remain usable afterwards.
  void stop();

  [[nodiscard]] WindowedServiceStats stats() const;
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct Task : TimedUpdate {
    std::uint64_t ticket = 0;      ///< issued by the spine; drives drain()
    std::uint64_t enqueue_ns = 0;  ///< queue-wait span start (tracing)
  };

  struct Tenant {
    Tenant(std::int32_t rows, std::int32_t cols, const WindowConfig& cfg)
        : window(rows, cols, cfg) {}
    std::mutex mutex;  ///< guards window (fold + snapshot + stats)
    TenantWindow window;
    std::uint64_t epoch = 0;  ///< guarded by mutex
  };

  /// The fold policy the spine's workers run on each popped burst.
  FoldCounts fold_burst(std::vector<Task>& burst);

  Config config_;
  TenantRegistry<Tenant> tenants_{"WindowedAggService"};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> snapshots_{0};

  // Queue, workers, tickets and burst counters. Declared after
  // everything fold_burst reads, so its workers start last.
  IngestSpine<Task> spine_;

  /// Exports the spine's families plus per-tenant window stats.
  void export_metrics(obs::CollectorSink& sink) const;

  // LAST member: destroyed first, and its dtor blocks until no render
  // can still be invoking export_metrics on this instance.
  obs::CollectorHandle collector_;
};

}  // namespace spkadd::service
