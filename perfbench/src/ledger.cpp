// Replays of a workload's own addends through the public calls of each
// layer, and the per-layer metric table of the traced run.
#include <algorithm>
#include <iostream>
#include <string>

#include "core/accumulator.hpp"
#include "core/spkadd.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "service/agg_service.hpp"
#include "service/window.hpp"
#include "workload.hpp"

namespace perfbench {

namespace core = spkadd::core;
namespace net = spkadd::net;
namespace service = spkadd::service;

constexpr double kMiB = 1024.0 * 1024.0;

void Tally::check(bool ok, const char* what) {
  attempted.fetch_add(1);
  if (ok) return;
  failed.fetch_add(1);
  std::cerr << "perfbench: FAILED " << what << "\n";
}

void replay_core(const std::vector<Csc>& set, const Csc& expect, Lane* lane,
                 LayerCounts& counts, Tally& tally) {
  const std::span<const Csc> inputs(set);
  for (std::uint64_t i = 0; i < 5; ++i) {
    Scope s(lane, "core.auto_select", i);
    const core::Method m = core::auto_select(inputs, core::Options{});
    static_cast<void>(m);
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    Csc out;
    {
      Scope s(lane, "core.spkadd", i);
      out = core::spkadd(inputs);
    }
    tally.check(out == expect, "core.spkadd replay differs from reference");
  }
  counts.core = core::OpCounters{};
  core::Options counted;
  counted.counters = &counts.core;
  tally.check(core::spkadd(inputs, counted) == expect,
              "counted core.spkadd differs from reference");
}

void replay_accumulator(const std::vector<Csc>& set, const Csc& expect,
                        Lane* lane, LayerCounts& counts, Tally& tally) {
  core::OpCounters pass;
  core::Options opts;
  opts.counters = &pass;
  core::Accumulator<> acc(set.front().rows(), set.front().cols(), opts);
  for (std::uint64_t i = 0; i < set.size(); ++i) {
    Scope s(lane, "accumulator.stage", i);
    const std::uint64_t before = acc.stats().flushes;
    acc.add(set[i]);
    if (acc.stats().flushes != before) s.rename("accumulator.fold");
  }
  Csc out;
  {
    Scope s(lane, "accumulator.finalize", set.size());
    out = acc.finalize();
  }
  tally.check(out == expect, "Accumulator replay differs from one-shot");
  counts.acc_flushes = acc.stats().flushes;
  counts.acc_useful_byte_share =
      static_cast<double>(counts.core.bytes_moved) /
      static_cast<double>(pass.bytes_moved);
  counts.acc_peak_intermediate_mib =
      static_cast<double>(acc.stats().peak_intermediate_bytes) / kMiB;
}

void probe_agg(const std::vector<Csc>& set, const Csc& expect, Lane* lane,
               LayerCounts& counts, Tally& tally) {
  spkadd::obs::MetricsRegistry registry;
  service::ServiceConfig cfg;
  cfg.shards = 2;
  cfg.workers = 2;
  cfg.options.threads = 1;
  cfg.metrics = &registry;
  service::AggService svc(cfg);
  std::uint64_t op = 0;
  for (int round = 0; round < 2; ++round) {
    for (const Csc& m : set) {
      Csc copy = m;
      Scope s(lane, "agg.submit", op++);
      tally.check(svc.submit("probe", std::move(copy)), "agg probe submit");
    }
    Scope s(lane, "agg.drain", op++);
    svc.drain();
  }
  for (int i = 0; i < 3; ++i) {
    service::AggService::Snapshot snap;
    {
      Scope s(lane, "agg.snapshot", op++);
      snap = svc.snapshot("probe");
    }
    tally.check(snap.sum.nnz() == expect.nnz() &&
                    snap.updates_applied == 2 * set.size(),
                "agg probe snapshot shape");
  }
  const service::ServiceStats st = svc.stats();
  counts.agg_applied_p50_ms = st.latency.p50 * 1e3;
  counts.agg_flushes_deadline = st.ingest.flushes_deadline;
  scrape_service(registry.render_prometheus(), "agg", counts);
  svc.stop();
}

void replay_window(const std::vector<Csc>& set, Lane* lane,
                   LayerCounts& counts, Tally& tally) {
  service::WindowConfig cfg;
  cfg.options.threads = 1;
  service::TenantWindow window(set.front().rows(), set.front().cols(), cfg);
  const std::size_t per_bucket =
      std::max<std::size_t>(1, set.size() / cfg.live_buckets);
  const std::size_t n = 2 * cfg.live_buckets * per_bucket;
  for (std::size_t i = 0; i < n; ++i) {
    Csc copy = set[i % set.size()];
    const std::uint64_t ts = (i / per_bucket) * cfg.bucket_width;
    Scope s(lane, "window.submit", i);
    tally.check(window.submit(ts, std::move(copy)), "window replay submit");
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    Csc sum;
    {
      Scope s(lane, "window.snapshot", i);
      sum = window.snapshot(0);
    }
    tally.check(sum.nnz() > 0, "window replay snapshot");
  }
  counts.window_buckets_retired = window.stats().buckets_retired;
}

void replay_codec(const std::vector<Csc>& set, const Csc& snapshot,
                  Lane* lane, LayerCounts& counts, Tally& tally) {
  for (std::uint64_t i = 0; i < set.size(); ++i) {
    std::string payload;
    Csc back;
    {
      Scope s(lane, "net.encode_update", i);
      payload = net::encode_matrix(set[i]);
    }
    {
      Scope s(lane, "net.decode_update", i);
      back = net::decode_matrix(payload);
    }
    tally.check(back == set[i], "update codec round trip");
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    std::string payload;
    Csc back;
    {
      Scope s(lane, "net.encode_snapshot", i);
      payload = net::encode_matrix(snapshot);
    }
    {
      Scope s(lane, "net.decode_snapshot", i);
      back = net::decode_matrix(payload);
    }
    tally.check(back == snapshot, "snapshot codec round trip");
    counts.net_snapshot_mib = static_cast<double>(payload.size()) / kMiB;
  }
}

void probe_daemon(const std::vector<Csc>& set, Lane* lane,
                  LayerCounts& counts, Tally& tally) {
  spkadd::obs::MetricsRegistry registry;
  net::ServerConfig cfg;
  cfg.service.workers = 1;
  cfg.service.window.options.threads = 1;
  cfg.service.metrics = &registry;
  net::DaemonServer server(cfg);
  std::uint64_t op = 0;
  {
    net::Client client("127.0.0.1", server.port());
    constexpr std::size_t kBurst = 8;
    for (std::size_t lo = 0; lo < set.size(); lo += kBurst) {
      const std::size_t n = std::min(kBurst, set.size() - lo);
      for (std::size_t i = lo; i < lo + n; ++i)
        client.submit_async("probe", 1, set[i]);
      Scope s(lane, "net.submit_burst", op++);
      tally.check(client.collect_acks(n) == n, "daemon probe acks");
    }
    for (int i = 0; i < 3; ++i) {
      Scope s(lane, "net.drain", op++);
      tally.check(client.drain() == net::Status::kOk, "daemon probe drain");
    }
    for (int i = 0; i < 3; ++i) {
      net::Client::SnapshotResult snap;
      {
        Scope s(lane, "net.snapshot", op++);
        snap = client.snapshot("probe", 0);
      }
      tally.check(snap.status == net::Status::kOk && snap.sum.nnz() > 0,
                  "daemon probe snapshot");
    }
    net::Status status = net::Status::kInternal;
    const std::string text = client.metrics_text(&status);
    tally.check(status == net::Status::kOk, "daemon probe scrape");
    scrape_daemon(text, counts);
  }
  server.stop();
}

namespace {

/// Value of the exposition line `series value`, or 0 when absent.
double prom_value(const std::string& text, const std::string& series) {
  const std::string needle = series + ' ';
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n')
      return std::stod(text.substr(pos + needle.size()));
    pos += needle.size();
  }
  return 0.0;
}

/// sum / count of a histogram family's series (0 when empty).
double prom_mean(const std::string& text, const std::string& family,
                 const std::string& labels) {
  const double count = prom_value(text, family + "_count" + labels);
  return count > 0 ? prom_value(text, family + "_sum" + labels) / count : 0.0;
}

}  // namespace

void scrape_service(const std::string& text, const std::string& service,
                    LayerCounts& counts) {
  const std::string labels = "{service=\"" + service + "\"}";
  counts.service_fold_burst_mean_ms =
      prom_mean(text, "spkadd_fold_seconds", labels) * 1e3;
  counts.service_throttle_events =
      prom_value(text, "spkadd_queue_throttle_events_total" + labels);
  counts.service_queue_high_water =
      prom_value(text, "spkadd_queue_high_water" + labels);
  counts.service_burst_mean =
      prom_mean(text, "spkadd_ingest_burst_updates", labels);
}

void scrape_daemon(const std::string& text, LayerCounts& counts) {
  const std::string family = "spkadd_daemon_request_seconds";
  counts.daemon_submit_dispatch_mean_us =
      prom_mean(text, family, "{verb=\"submit\"}") * 1e6;
  counts.daemon_drain_dispatch_mean_ms =
      prom_mean(text, family, "{verb=\"drain\"}") * 1e3;
  counts.daemon_snapshot_dispatch_mean_ms =
      prom_mean(text, family, "{verb=\"snapshot\"}") * 1e3;
}

void emit_layer_metrics(const Tracer& tracer, const LayerCounts& c,
                        Outcome& out) {
  const auto self_ms = [&](const char* span) {
    return median(tracer.self_ms(span));
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out.add("core.call_self_ms", self_ms("core.spkadd"), "ms");
  out.add("core.prescan_ms", self_ms("core.auto_select"), "ms");
  out.add("core.work_ops", d(c.core.work()), "count");
  out.add("core.bytes_moved_mib", d(c.core.bytes_moved) / kMiB, "MiB");
  out.add("core.table_inits", d(c.core.table_inits), "count");
  out.add("core.chunks_heap", d(c.core.chunks_heap), "count");
  out.add("core.chunks_spa", d(c.core.chunks_spa), "count");
  out.add("core.chunks_hash", d(c.core.chunks_hash), "count");
  out.add("core.chunks_sliding", d(c.core.chunks_sliding), "count");
  out.add("core.chunks_dense", d(c.core.chunks_dense), "count");
  out.add("accumulator.fold_ms", self_ms("accumulator.fold"), "ms");
  out.add("accumulator.stage_us", self_ms("accumulator.stage") * 1e3, "us");
  out.add("accumulator.finalize_ms", self_ms("accumulator.finalize"), "ms");
  out.add("accumulator.flushes", d(c.acc_flushes), "count");
  out.add("accumulator.useful_byte_share", c.acc_useful_byte_share, "ratio");
  out.add("accumulator.peak_intermediate_mib", c.acc_peak_intermediate_mib,
          "MiB");
  out.add("agg.submit_us", self_ms("agg.submit") * 1e3, "us");
  out.add("agg.drain_ms", self_ms("agg.drain"), "ms");
  out.add("agg.snapshot_ms", self_ms("agg.snapshot"), "ms");
  out.add("agg.applied_p50_ms", c.agg_applied_p50_ms, "ms");
  out.add("agg.flushes_deadline", d(c.agg_flushes_deadline), "count");
  out.add("service.fold_burst_mean_ms", c.service_fold_burst_mean_ms, "ms");
  out.add("service.throttle_events", c.service_throttle_events, "count");
  out.add("service.queue_high_water", c.service_queue_high_water, "count");
  out.add("service.burst_mean", c.service_burst_mean, "count");
  out.add("window.submit_ms", self_ms("window.submit"), "ms");
  out.add("window.snapshot_ms", self_ms("window.snapshot"), "ms");
  out.add("window.buckets_retired", d(c.window_buckets_retired), "count");
  out.add("net.encode_update_us", self_ms("net.encode_update") * 1e3, "us");
  out.add("net.decode_update_us", self_ms("net.decode_update") * 1e3, "us");
  out.add("net.encode_snapshot_ms", self_ms("net.encode_snapshot"), "ms");
  out.add("net.decode_snapshot_ms", self_ms("net.decode_snapshot"), "ms");
  out.add("net.snapshot_mib", c.net_snapshot_mib, "MiB");
  out.add("net.submit_rtt_p50_ms", self_ms("net.submit_burst"), "ms");
  out.add("net.submit_rtt_p99_ms",
          quantile(tracer.durations_ms("net.submit_burst"), 0.99), "ms");
  out.add("net.drain_rtt_p50_ms", self_ms("net.drain"), "ms");
  out.add("net.snapshot_rtt_p50_ms", self_ms("net.snapshot"), "ms");
  out.add("daemon.submit_dispatch_mean_us",
          c.daemon_submit_dispatch_mean_us, "us");
  out.add("daemon.drain_dispatch_mean_ms", c.daemon_drain_dispatch_mean_ms,
          "ms");
  out.add("daemon.snapshot_dispatch_mean_ms",
          c.daemon_snapshot_dispatch_mean_ms, "ms");
}

}  // namespace perfbench
