#include "service/windowed_service.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <utility>

namespace spkadd::service {

namespace {

WindowedAggService::Config validated(WindowedAggService::Config cfg) {
  cfg.window.validate();
  return cfg;
}

}  // namespace

WindowedAggService::WindowedAggService(Config config)
    : config_(validated(std::move(config))),
      spine_("WindowedAggService", config_, config_.workers,
             /*pin_threads=*/false,
             [this](std::vector<Task>& burst) { return fold_burst(burst); }) {
  if (config_.metrics != nullptr) {
    collector_ = config_.metrics->add_collector(
        [this](obs::CollectorSink& sink) { export_metrics(sink); });
  }
}

WindowedAggService::~WindowedAggService() { stop(); }

bool WindowedAggService::submit(const std::string& tenant,
                                std::uint64_t ts, Matrix&& update) {
  std::vector<TimedUpdate> one;
  one.push_back(TimedUpdate{tenant, ts, std::move(update), {}});
  return submit_burst(one) == 1;
}

std::size_t WindowedAggService::submit_burst(
    std::vector<TimedUpdate>& burst) {
  if (burst.empty() || !spine_.admit(burst.size())) return 0;
  // Create/validate every tenant BEFORE anything is ticketed or
  // enqueued: a shape mismatch throws here with the burst untouched.
  for (const auto& u : burst) {
    const std::int32_t rows = u.update.rows();
    const std::int32_t cols = u.update.cols();
    tenants_.get_or_create(u.tenant, rows, cols, [&] {
      return std::make_unique<Tenant>(rows, cols, config_.window);
    });
  }

  obs::Tracer& tracer = obs::Tracer::global();
  const std::uint64_t enqueue_start =
      tracer.enabled() ? obs::Tracer::now_ns() : 0;
  std::vector<Task> tasks;
  tasks.reserve(burst.size());
  for (auto& u : burst) tasks.push_back(Task{std::move(u), 0, 0});
  burst.clear();
  if (enqueue_start != 0) {
    // Close the burst-enqueue span before the tasks are moved into the
    // queue; enqueue_ns marks where the queue-wait span begins.
    for (auto& task : tasks) {
      tracer.record(task.trace, obs::Stage::kBurstEnqueue, enqueue_start,
                    "tenant=" + task.tenant);
      task.enqueue_ns = obs::Tracer::now_ns();
    }
  }
  return spine_.push_burst(tasks);
}

FoldCounts WindowedAggService::fold_burst(std::vector<Task>& burst) {
  FoldCounts counts;
  std::uint64_t n_expired = 0;
  obs::Tracer& tracer = obs::Tracer::global();
  for_each_tenant_group(burst, [&](const std::string& name,
                                   const std::vector<std::size_t>& group) {
    Tenant* t = tenants_.find(name);
    if (t == nullptr) {  // unreachable: submit_burst creates tenants
      counts.errors += group.size();
      return;
    }
    std::lock_guard<std::mutex> lock(t->mutex);
    for (auto i : group) {
      Task& task = burst[i];
      if (task.trace.active())
        tracer.record(task.trace, obs::Stage::kQueueWait, task.enqueue_ns);
      const std::uint64_t submit_start =
          task.trace.active() ? obs::Tracer::now_ns() : 0;
      try {
        if (t->window.submit(task.timestamp, std::move(task.update)))
          ++counts.applied;
        else
          ++n_expired;  // counted in the window too, never folded
      } catch (const std::exception& e) {
        ++counts.errors;
        std::cerr << "WindowedAggService: dropped update for tenant '"
                  << name << "': " << e.what() << "\n";
      }
      if (task.trace.active()) {
        tracer.record(task.trace, obs::Stage::kShardFold, submit_start,
                      "tenant=" + name);
        tracer.finish_op(task.trace);
      }
    }
  });
  // Before the spine retires the burst, so a drain sees the count.
  expired_.fetch_add(n_expired, std::memory_order_relaxed);
  return counts;
}

WindowedAggService::Snapshot WindowedAggService::snapshot(
    const std::string& tenant, std::size_t window_buckets) {
  Tenant* t = tenants_.find(tenant);
  if (t == nullptr)
    throw std::invalid_argument("WindowedAggService: unknown tenant '" +
                                tenant + "'");
  const std::uint64_t start = obs::Tracer::now_ns();
  std::lock_guard<std::mutex> lock(t->mutex);
  Snapshot snap;
  snap.sum = t->window.snapshot(window_buckets);
  snap.epoch = ++t->epoch;
  snap.updates_applied = t->window.stats().accepted;
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  obs::Tracer::global().record_span(obs::Stage::kSnapshot, start,
                                    "tenant=" + tenant);
  return snap;
}

void WindowedAggService::drain() { spine_.drain(); }

void WindowedAggService::stop() { spine_.stop(); }

WindowedServiceStats WindowedAggService::stats() const {
  WindowedServiceStats out;
  static_cast<SpineStats&>(out) = spine_.stats();
  out.expired = expired_.load(std::memory_order_relaxed);
  out.snapshots = snapshots_.load(std::memory_order_relaxed);
  tenants_.for_each([&](const std::string& name, Tenant& t) {
    std::lock_guard<std::mutex> g(t.mutex);
    out.tenants.emplace_back(name, t.window.stats());
  });
  return out;
}

void WindowedAggService::export_metrics(obs::CollectorSink& sink) const {
  // Invoked by the registry at scrape time (registry mutex held); the
  // hot paths never take the registry mutex, so taking the service
  // locks inside stats() cannot cycle.
  const WindowedServiceStats st = stats();
  const obs::Labels svc{{"service", "windowed"}};
  spine_.export_metrics(sink, svc, st);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  sink.counter("spkadd_service_expired_total",
               "Updates rejected as expired at fold time", svc,
               d(st.expired));
  sink.counter("spkadd_service_snapshots_total",
               "Windowed snapshots assembled", svc, d(st.snapshots));
  WindowStats totals;
  for (const auto& [name, ws] : st.tenants) {
    const obs::Labels tl{{"service", "windowed"}, {"tenant", name}};
    sink.gauge("spkadd_tenant_live_buckets",
               "Window buckets currently materialized", tl,
               d(ws.live_buckets));
    sink.counter("spkadd_tenant_accepted_total",
                 "Updates routed into this tenant's window", tl,
                 d(ws.accepted));
    sink.counter("spkadd_tenant_expired_total",
                 "Updates rejected as older than the live ring", tl,
                 d(ws.expired_rejected));
    sink.counter("spkadd_tenant_buckets_retired_total",
                 "Window buckets aged out of the live ring", tl,
                 d(ws.buckets_retired));
    totals.fold_flushes += ws.fold_flushes;
    totals.peak_staged_nnz =
        std::max(totals.peak_staged_nnz, ws.peak_staged_nnz);
    totals.chunks_heap += ws.chunks_heap;
    totals.chunks_spa += ws.chunks_spa;
    totals.chunks_hash += ws.chunks_hash;
    totals.chunks_sliding += ws.chunks_sliding;
    totals.chunks_dense += ws.chunks_dense;
  }
  sink.counter("spkadd_shard_fold_flushes_total",
               "Accumulator folds performed across tenant windows", svc,
               d(totals.fold_flushes));
  sink.gauge("spkadd_accumulator_staged_nnz_peak",
             "Max nonzeros awaiting a fold in any one bucket", svc,
             d(totals.peak_staged_nnz));
  const auto chunk = [&](const char* kernel, std::uint64_t v) {
    sink.counter("spkadd_hybrid_chunks_total",
                 "Hybrid column chunks dispatched per kernel",
                 {{"service", "windowed"}, {"kernel", kernel}}, d(v));
  };
  chunk("heap", totals.chunks_heap);
  chunk("spa", totals.chunks_spa);
  chunk("hash", totals.chunks_hash);
  chunk("sliding", totals.chunks_sliding);
  chunk("dense", totals.chunks_dense);
}

}  // namespace spkadd::service
