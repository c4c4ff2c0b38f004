// The four closed-loop workloads and the per-layer ledger of the traced
// run. README.md states why each workload exists and which layer metric
// should move which end-to-end metric on which workload.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "harness.hpp"
#include "matrix/csc.hpp"

namespace perfbench {

using Csc = spkadd::CscMatrix<std::int32_t, double>;

/// OpenMP team of every kernel call the benchmark makes directly; the
/// service folds run single-threaded. A team that takes every vCPU
/// competes with the service threads and the host, and its timings spread.
inline constexpr int kOmpTeam = 2;

/// Operations attempted and failed across a whole run. Shared by the
/// client threads of `wire-mixed`, hence atomic.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};

  /// Count one operation; false (and a stderr line) marks it failed.
  void check(bool ok, const char* what);
  void count(std::uint64_t n) { attempted.fetch_add(n); }
};

/// End-to-end values of one measured phase. Set-up time and peak memory
/// are measured by main.cpp around the workload's calls.
struct PhaseResult {
  double gnnz_per_s = 0;
  double updates_per_s = 0;
  double visible_p50_ms = 0;
  std::size_t ops = 0;  ///< operations behind the medians
  /// p99 of the loop's operations (calls, passes, rounds, writer bursts):
  /// printed for diagnosis, not a metric (README.md says why).
  double op_p99_ms = 0;
};

/// Threads and connections a workload's configuration starts.
struct Layout {
  int kernel_team = 0;      ///< OpenMP team of direct kernel calls
  int service_threads = 0;  ///< workers, flusher, poll thread
  int client_threads = 0;   ///< benchmark threads driving the system
  int connections = 0;

  [[nodiscard]] int busy_threads() const {
    return std::max(kernel_team, client_threads) + service_threads;
  }
};

/// Counters and scraped values behind the per-layer metrics that are not
/// span timings. Filled by the workload from its live system and by the
/// replays for layers its loop does not reach.
struct LayerCounts {
  spkadd::core::OpCounters core;  ///< one counted core::spkadd call
  std::uint64_t acc_flushes = 0;  ///< Accumulator::Stats of one pass
  double acc_useful_byte_share = 0;
  double acc_peak_intermediate_mib = 0;
  double agg_applied_p50_ms = 0;
  std::uint64_t agg_flushes_deadline = 0;
  double service_fold_burst_mean_ms = 0;
  double service_throttle_events = 0;
  double service_queue_high_water = 0;
  double service_burst_mean = 0;
  std::uint64_t window_buckets_retired = 0;
  double net_snapshot_mib = 0;
  double daemon_submit_dispatch_mean_us = 0;
  double daemon_drain_dispatch_mean_ms = 0;
  double daemon_snapshot_dispatch_mean_ms = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual Layout layout() const = 0;
  /// Inputs and references from the seed (never timed).
  virtual void generate(std::uint64_t seed) = 0;
  /// Build the system under test and run the fixed warm-up (timed as
  /// set-up). A second call replaces the previous system.
  virtual void setup(Lane* lane) = 0;
  /// The closed loop, for `seconds`; spans go to `tracer` when non-null.
  virtual PhaseResult measure(double seconds, Tracer* tracer) = 0;
  /// Per-layer counts from the live system plus replays of the
  /// workload's addends through the layers its loop does not reach.
  virtual void ledger(Lane* lane, LayerCounts& counts) = 0;
  /// Verify the live system's final output, then tear it down.
  virtual void finish() = 0;

  Tally tally;
};

/// The workload called `name`, or nullptr.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

// ---- replays (ledger.cpp) ------------------------------------------------

/// core::auto_select and core::spkadd on `set` (spans core.auto_select,
/// core.spkadd) plus one call with Options::counters, checked against
/// `expect`. Returns the counted call's OpCounters in counts.core.
void replay_core(const std::vector<Csc>& set, const Csc& expect, Lane* lane,
                 LayerCounts& counts, Tally& tally);

/// One Accumulator pass over `set` with counters (spans
/// accumulator.stage / .fold / .finalize); needs counts.core filled.
void replay_accumulator(const std::vector<Csc>& set, const Csc& expect,
                        Lane* lane, LayerCounts& counts, Tally& tally);

/// AggService (2 shards, 2 workers) fed `set` twice: agg.* spans, stats()
/// and the service.* values of its registry; `expect` is the set's sum.
void probe_agg(const std::vector<Csc>& set, const Csc& expect, Lane* lane,
               LayerCounts& counts, Tally& tally);

/// TenantWindow fed `set` cyclically over two rings' worth of buckets
/// (window.submit), then three full-ring snapshots (window.snapshot).
void replay_window(const std::vector<Csc>& set, Lane* lane,
                   LayerCounts& counts, Tally& tally);

/// net::encode_matrix / decode_matrix round trips of every update and of
/// `snapshot`.
void replay_codec(const std::vector<Csc>& set, const Csc& snapshot,
                  Lane* lane, LayerCounts& counts, Tally& tally);

/// A localhost DaemonServer (1 worker) fed `set` in pipelined bursts of 8
/// (net.submit_burst), then drains and snapshots; daemon.* from one scrape.
void probe_daemon(const std::vector<Csc>& set, Lane* lane,
                  LayerCounts& counts, Tally& tally);

/// Fill the service.* values from a Prometheus exposition.
void scrape_service(const std::string& text, const std::string& service,
                    LayerCounts& counts);
/// Fill the daemon.* values from a Prometheus exposition.
void scrape_daemon(const std::string& text, LayerCounts& counts);

/// Every per-layer metric, from the spans of `tracer` and `counts`.
void emit_layer_metrics(const Tracer& tracer, const LayerCounts& counts,
                        Outcome& out);

}  // namespace perfbench
