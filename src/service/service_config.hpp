// Tuning knobs for the sharded aggregation service (see agg_service.hpp
// for the architecture). Every knob maps to one axis of the
// bench_service loadgen sweep.
//
// Thread-safety contract: ServiceConfig is a plain value type — fill it
// on one thread, hand it to AggService by value; the service never
// mutates it afterwards. Bit-identity: `options` selects the fold
// method, and every method is a strict left fold, so any valid config
// yields snapshots bit-identical to one-shot spkadd on exact values.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "core/options.hpp"
#include "obs/metrics.hpp"

namespace spkadd::service {

struct ServiceConfig {
  /// Row-range shards per tenant. Each incoming update is partitioned
  /// into `shards` disjoint row slices and each slice folds into its own
  /// streaming Accumulator, so updates to different row ranges never
  /// contend on one lock.
  std::size_t shards = 4;

  /// Worker threads draining the ingest queue. 0 = one per shard.
  std::size_t workers = 0;

  /// Ingest queue capacity (whole updates): the hard memory bound on
  /// in-flight updates. Producer admission is governed by the
  /// watermarks below, not by raw capacity.
  std::size_t queue_capacity = 64;

  /// Producer burst buffer size: submit() stages updates into a
  /// thread-local buffer flushed into the ingest queue as ONE enqueue
  /// (one queue-lock acquisition per burst, not per update) once this
  /// many are staged. Workers pop up to a burst at a time and fold the
  /// slices grouped per shard (one shard-lock acquisition per burst).
  /// 1 = flush on every submit, the pre-burst behavior.
  std::size_t burst_size = 8;

  /// A staged update never waits in a burst buffer longer than this
  /// before the background flusher pushes the partial burst, so a lone
  /// update is not stranded waiting for the buffer to fill.
  std::size_t flush_deadline_us = 500;

  /// Queue admission hysteresis (FlexiCAS XACT_QUEUE_HIGH/LOW):
  /// producers throttle once the queue depth reaches the high
  /// watermark and are released only when workers drain it to the low
  /// watermark, instead of hard-blocking at capacity and waking on
  /// every pop. 0 defaults: high = queue_capacity, low = 3/4 of high.
  std::size_t queue_high_watermark = 0;
  std::size_t queue_low_watermark = 0;

  /// Pin worker thread i to logical CPU i mod online-CPUs
  /// (best-effort), giving stable thread/shard affinity on multi-core
  /// scaling runs. Off by default: pinning a whole worker pool onto an
  /// oversubscribed box hurts.
  bool pin_threads = false;

  /// Accumulator fold window: a hard count bound on owned slices staged
  /// per shard fold (core::Accumulator batch_capacity, the paper's §V
  /// batch size). The Accumulator's size-ratio trigger needs 8 staged
  /// addends, so at 8 or fewer this count alone decides.
  std::size_t batch_window = 8;

  /// SpKAdd options used for shard folds and snapshot assembly. The
  /// default (Method::Auto, sorted output) yields canonical snapshots.
  core::Options options;

  /// Registry this service exports its counters and latency histograms
  /// into (a scrape-time collector — hot paths never touch it).
  /// nullptr disables the export; stats() is unaffected either way.
  obs::MetricsRegistry* metrics = &obs::default_registry();

  /// Effective worker count after defaulting.
  [[nodiscard]] std::size_t effective_workers() const {
    return workers != 0 ? workers : shards;
  }

  /// Throws std::invalid_argument on an unusable configuration. The
  /// queue knobs (queue_capacity, burst_size, the watermarks) are
  /// checked by the ingest spine when the service builds it.
  void validate() const {
    if (shards < 1)
      throw std::invalid_argument("ServiceConfig: shards must be >= 1");
    if (batch_window < 1)
      throw std::invalid_argument(
          "ServiceConfig: batch_window must be >= 1");
    if (flush_deadline_us < 1)
      throw std::invalid_argument(
          "ServiceConfig: flush_deadline_us must be >= 1");
    // A merge-family method with inputs declared unsorted would throw
    // on every single fold; refuse the config instead of the traffic.
    if (core::requires_sorted_inputs(options.method) &&
        !options.inputs_sorted)
      throw std::invalid_argument(
          "ServiceConfig: method requires sorted inputs but "
          "options.inputs_sorted is false");
  }
};

}  // namespace spkadd::service
