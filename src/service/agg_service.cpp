#include "service/agg_service.hpp"

#include <algorithm>
#include <iostream>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/spkadd.hpp"

namespace spkadd::service {

namespace {

ServiceConfig validated(ServiceConfig cfg) {
  cfg.validate();
  return cfg;
}

}  // namespace

AggService::Tenant::Tenant(std::int32_t r, std::int32_t c,
                           const ServiceConfig& cfg)
    : partition(RowPartition::make(r, cfg.shards)) {
  for (std::size_t s = 0; s < cfg.shards; ++s)
    shards.emplace_back(r, c, cfg.options, cfg.batch_window);
}

AggService::AggService(ServiceConfig config)
    : config_(validated(std::move(config))),
      spine_("AggService", config_, config_.effective_workers(),
             config_.pin_threads,
             [this](std::vector<Task>& burst) { return fold_burst(burst); }) {
  flusher_ = std::thread([this] { flusher_loop(); });
  if (config_.metrics != nullptr) {
    collector_ = config_.metrics->add_collector(
        [this](obs::CollectorSink& sink) { export_metrics(sink); });
  }
}

AggService::~AggService() { stop(); }

AggService::Tenant& AggService::tenant_for(const std::string& name,
                                           const Matrix& update) {
  return tenants_.get_or_create(name, update.rows(), update.cols(), [&] {
    return std::make_unique<Tenant>(update.rows(), update.cols(), config_);
  });
}

AggService::BurstBuffer& AggService::local_buffer() {
  // Keyed by service address: one producer thread can feed several
  // services. An entry outlives its service only as an expired weak_ptr
  // (the service's buffers_ vector holds the owning reference), so an
  // address reused by a new service simply misses and re-registers.
  thread_local std::map<const AggService*, std::weak_ptr<BurstBuffer>>
      cache;
  auto& slot = cache[this];
  if (auto existing = slot.lock()) return *existing;
  for (auto it = cache.begin(); it != cache.end();) {
    it = it->second.expired() && it->first != this ? cache.erase(it)
                                                   : std::next(it);
  }
  auto created = std::make_shared<BurstBuffer>();
  created->tasks.reserve(config_.burst_size);
  slot = created;
  BurstBuffer& ref = *created;
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  buffers_.push_back(std::move(created));
  return ref;
}

bool AggService::flush_locked(BurstBuffer& buf, FlushReason reason,
                              bool blocking) {
  if (buf.tasks.empty()) return true;
  const bool pushed = blocking ? spine_.push_burst(buf.tasks) != 0
                               : spine_.try_push_burst(buf.tasks);
  if (pushed)
    flushes_[static_cast<std::size_t>(reason)].fetch_add(
        1, std::memory_order_relaxed);
  return buf.tasks.empty();
}

void AggService::flush_all_buffers(FlushReason reason) {
  std::vector<std::shared_ptr<BurstBuffer>> bufs;
  {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    bufs = buffers_;
  }
  for (auto& buf : bufs) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    (void)flush_locked(*buf, reason, /*blocking=*/true);
  }
}

void AggService::flusher_loop() {
  const auto period = std::chrono::microseconds(config_.flush_deadline_us);
  std::unique_lock<std::mutex> lock(flusher_mutex_);
  while (!flusher_stop_) {
    flusher_cv_.wait_for(lock, period, [this] { return flusher_stop_; });
    if (flusher_stop_) break;
    lock.unlock();
    std::vector<std::shared_ptr<BurstBuffer>> bufs;
    {
      std::lock_guard<std::mutex> g(buffers_mutex_);
      bufs = buffers_;
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto& buf : bufs) {
      // try_to_lock: a contended buffer means its producer is mid-
      // submit (it will flush on full, or the next sweep catches it).
      // Yielding here keeps the flusher from ever making a producer's
      // try_submit fail on a momentarily-held buffer mutex.
      std::unique_lock<std::mutex> g(buf->mutex, std::try_to_lock);
      if (!g.owns_lock()) continue;
      if (buf->tasks.empty() || now - buf->oldest < period) continue;
      // Non-blocking: a throttled queue means the system is saturated,
      // not that the update is stranded — the next sweep (or the
      // producer's own full-buffer flush) retries, and the flusher
      // never wedges on one buffer while others age.
      (void)flush_locked(*buf, FlushReason::kDeadline,
                         /*blocking=*/false);
    }
    lock.lock();
  }
}

bool AggService::submit(const std::string& tenant, Matrix update) {
  if (!spine_.admit(1)) return false;
  tenant_for(tenant, update);
  BurstBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  // Re-check under the buffer lock: stop() marks the spine stopped and
  // then sweeps every buffer under its mutex, so a submit that stages
  // after this check is ordered before that sweep (or sees it here).
  if (!spine_.admit(1)) return false;
  const auto now = std::chrono::steady_clock::now();
  if (buf.tasks.empty()) buf.oldest = now;
  buf.tasks.push_back(Task{tenant, std::move(update), now});
  if (buf.tasks.size() >= config_.burst_size)
    (void)flush_locked(buf, FlushReason::kFull, /*blocking=*/true);
  return true;
}

bool AggService::try_submit(const std::string& tenant, Matrix&& update) {
  if (!spine_.admit(1)) return false;
  tenant_for(tenant, update);
  BurstBuffer& buf = local_buffer();
  // A busy buffer is either the flusher's microsecond-scale sweep (one
  // yield rides it out) or a drain/stop sweep blocked on the watermark
  // (genuine backpressure: report it rather than blocking an open-loop
  // load generator behind it).
  std::unique_lock<std::mutex> lock(buf.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    std::this_thread::yield();
    if (!lock.try_lock()) return false;
  }
  if (!spine_.admit(1)) return false;
  if (buf.tasks.size() >= config_.burst_size &&
      !flush_locked(buf, FlushReason::kFull, /*blocking=*/false)) {
    return false;  // ingest saturated; the update is untouched
  }
  const auto now = std::chrono::steady_clock::now();
  if (buf.tasks.empty()) buf.oldest = now;
  buf.tasks.push_back(Task{tenant, std::move(update), now});
  if (buf.tasks.size() >= config_.burst_size)
    (void)flush_locked(buf, FlushReason::kFull, /*blocking=*/false);
  return true;
}

FoldCounts AggService::fold_burst(std::vector<Task>& burst) {
  std::vector<unsigned char> ok(burst.size(), 1);
  for_each_tenant_group(
      burst, [&](const std::string&, const std::vector<std::size_t>& group) {
        apply_group(burst, group, ok);
      });
  const auto now = std::chrono::steady_clock::now();
  FoldCounts counts;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (!ok[i]) continue;
    ++counts.applied;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        now - burst[i].submitted)
                        .count();
    latency_.record(static_cast<std::uint64_t>(ns));
  }
  counts.errors = burst.size() - counts.applied;
  return counts;
}

void AggService::apply_group(std::vector<Task>& burst,
                             const std::vector<std::size_t>& group,
                             std::vector<unsigned char>& ok) {
  Tenant* t = tenants_.find(burst[group.front()].tenant);
  if (t == nullptr) {  // unreachable: submit creates the tenant
    for (auto i : group) ok[i] = 0;
    return;
  }
  const auto drop = [&](std::size_t i, const char* what) {
    ok[i] = 0;
    std::cerr << "AggService: dropped update for tenant '"
              << burst[i].tenant << "': " << what << "\n";
  };
  // Validate BEFORE staging anything: the config declares inputs
  // sorted to the kernels (merge methods throw on unsorted columns,
  // sliding hash row-slices by binary search), so an unsorted update is
  // invalid traffic. Rejecting it here keeps the drop all-or-nothing —
  // no slice of it ever reaches a shard, and no later fold or snapshot
  // inherits a poisoned batch.
  if (config_.options.inputs_sorted) {
    for (auto i : group) {
      if (!burst[i].update.is_sorted())
        drop(i, "update has unsorted columns but options.inputs_sorted"
                " is set");
    }
  }
  // Defensive backstop for folds that throw anyway (e.g. allocation
  // failure): the affected shard discards its staged batch — losing
  // that batch but keeping the accumulator serviceable — and the task
  // is dropped into the apply-error accounting. Caller holds sh.mutex.
  const auto fold_slice = [](TenantShard& sh, Matrix&& slice) {
    const std::uint64_t nnz = slice.nnz();
    try {
      sh.acc.add(std::move(slice));
    } catch (...) {
      sh.acc.discard_staged();
      throw;
    }
    ++sh.slices_applied;
    sh.folded_nnz += nnz;
  };
  // Shared vs. snapshot's unique lock: every update in the group lands
  // atomically with respect to readers.
  std::shared_lock apply_lock(t->apply_mutex);
  std::uint64_t applied_here = 0;
  if (t->shards.size() == 1) {
    // One shard-lock acquisition for the whole group.
    TenantShard& sh = t->shards.front();
    std::lock_guard<std::mutex> g(sh.mutex);
    for (auto i : group) {
      if (!ok[i]) continue;
      try {
        fold_slice(sh, std::move(burst[i].update));
        ++applied_here;
      } catch (const std::exception& e) {
        drop(i, e.what());
      }
    }
  } else {
    // Partition every update up front, then visit each shard ONCE for
    // the whole group: one shard-lock acquisition per (burst, shard)
    // instead of per (update, shard).
    std::vector<std::vector<Matrix>> sliced(group.size());
    for (std::size_t k = 0; k < group.size(); ++k) {
      if (ok[group[k]])
        sliced[k] = partition_rows(burst[group[k]].update, t->partition);
    }
    for (std::size_t s = 0; s < t->shards.size(); ++s) {
      TenantShard& sh = t->shards[s];
      std::lock_guard<std::mutex> g(sh.mutex);
      for (std::size_t k = 0; k < group.size(); ++k) {
        const std::size_t i = group[k];
        if (!ok[i] || sliced[k][s].nnz() == 0) continue;
        try {
          fold_slice(sh, std::move(sliced[k][s]));
        } catch (const std::exception& e) {
          drop(i, e.what());  // later shards skip this task
        }
      }
    }
    for (auto i : group)
      if (ok[i]) ++applied_here;
  }
  t->updates_applied.fetch_add(applied_here, std::memory_order_relaxed);
}

AggService::Snapshot AggService::snapshot(const std::string& tenant) {
  Tenant* t = tenants_.find(tenant);
  if (t == nullptr)
    throw std::invalid_argument("AggService: unknown tenant '" + tenant +
                                "'");
  // Workers are excluded by the unique apply lock; the shard mutexes
  // are still taken around the fold so stats() readers never race it.
  std::unique_lock apply_lock(t->apply_mutex);
  std::vector<const Matrix*> parts;
  parts.reserve(t->shards.size());
  bool sorted = true;
  for (auto& sh : t->shards) {
    std::lock_guard<std::mutex> g(sh.mutex);
    const Matrix& partial = sh.acc.partial_sum();
    sorted = sorted && sh.acc.partial_is_sorted();
    parts.push_back(&partial);
  }
  core::Options aopts = config_.options;
  aopts.inputs_sorted = aopts.inputs_sorted && sorted;
  Snapshot snap;
  snap.sum =
      core::spkadd(core::MatrixPtrs<std::int32_t, double>(parts), aopts);
  snap.epoch = t->epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  snap.updates_applied = t->updates_applied.load(std::memory_order_relaxed);
  t->snapshots.fetch_add(1, std::memory_order_relaxed);
  return snap;
}

void AggService::drain() {
  // Push every staged burst first so the spine's cutoff covers them; a
  // drain on a stopped service flushes into a closed queue, which
  // retires the stragglers as rejected instead of hanging on them.
  flush_all_buffers(FlushReason::kDrain);
  spine_.drain();
}

void AggService::stop() {
  spine_.stop([this] {
    {
      std::lock_guard<std::mutex> lock(flusher_mutex_);
      flusher_stop_ = true;
    }
    flusher_cv_.notify_all();
    if (flusher_.joinable()) flusher_.join();
    // Staged bursts reach the queue before it closes, so the workers'
    // backlog fold covers them.
    flush_all_buffers(FlushReason::kDrain);
  });
  // Self-heal the submit/stop race: anything staged concurrently with
  // the sweep above now flushes into the closed queue and is retired as
  // rejected rather than leaving a pending ticket.
  flush_all_buffers(FlushReason::kDrain);
}

ServiceStats AggService::stats() const {
  ServiceStats out;
  static_cast<SpineStats&>(out) = spine_.stats();
  const auto flushes = [&](FlushReason reason) {
    return flushes_[static_cast<std::size_t>(reason)].load(
        std::memory_order_relaxed);
  };
  out.ingest.flushes_full = flushes(FlushReason::kFull);
  out.ingest.flushes_deadline = flushes(FlushReason::kDeadline);
  out.ingest.flushes_drain = flushes(FlushReason::kDrain);
  out.latency = latency_.summary();
  out.shards.resize(config_.shards);
  tenants_.for_each([&](const std::string& name, Tenant& t) {
    TenantStats ts;
    ts.tenant = name;
    ts.updates_applied = t.updates_applied.load(std::memory_order_relaxed);
    ts.snapshots = t.snapshots.load(std::memory_order_relaxed);
    ts.epoch = t.epoch.load(std::memory_order_relaxed);
    for (std::size_t s = 0; s < t.shards.size(); ++s) {
      auto& sh = t.shards[s];
      std::lock_guard<std::mutex> g(sh.mutex);
      ts.folded_nnz += sh.folded_nnz;
      out.shards[s].slices_applied += sh.slices_applied;
      out.shards[s].folded_nnz += sh.folded_nnz;
      out.shards[s].flushes += sh.acc.stats().flushes;
      out.shards[s].peak_staged_nnz = std::max(
          out.shards[s].peak_staged_nnz, sh.acc.stats().peak_staged_nnz);
      out.shards[s].counters += sh.counters;
      out.shards[s].dense_promotions += sh.acc.stats().dense_promotions;
      out.shards[s].dense_demotions += sh.acc.stats().dense_demotions;
      out.shards[s].dense_resident_cols += sh.acc.dense_resident_cols();
    }
    out.tenants.push_back(std::move(ts));
  });
  return out;
}

void AggService::export_metrics(obs::CollectorSink& sink) const {
  // Invoked by the registry at scrape time (registry mutex held), so
  // taking the service locks inside stats() is safe: the hot paths
  // never take the registry mutex, ruling out a cycle.
  const ServiceStats st = stats();
  const obs::Labels svc{{"service", "agg"}};
  spine_.export_metrics(sink, svc, st);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  sink.histogram("spkadd_submit_latency_seconds",
                 "Submit-to-applied latency", svc, latency_,
                 obs::Unit::kSeconds);
  ShardStats totals;
  for (const auto& sh : st.shards) {
    totals.flushes += sh.flushes;
    totals.peak_staged_nnz =
        std::max(totals.peak_staged_nnz, sh.peak_staged_nnz);
    totals.counters += sh.counters;
    totals.dense_promotions += sh.dense_promotions;
    totals.dense_demotions += sh.dense_demotions;
    totals.dense_resident_cols += sh.dense_resident_cols;
  }
  sink.counter("spkadd_shard_fold_flushes_total",
               "Accumulator folds performed across shards", svc,
               d(totals.flushes));
  sink.gauge("spkadd_accumulator_staged_nnz_peak",
             "Max nonzeros awaiting a fold in any one shard", svc,
             d(totals.peak_staged_nnz));
  export_chunk_mix(sink, "agg", totals.counters);
  sink.counter("spkadd_dense_promotions_total",
               "Sparse→dense column promotions across shard accumulators",
               svc, d(totals.dense_promotions));
  sink.counter("spkadd_dense_demotions_total",
               "Dense→sparse column demotions across shard accumulators",
               svc, d(totals.dense_demotions));
  sink.gauge("spkadd_dense_resident_chunks",
             "Columns currently held in dense (promoted) storage",
             svc, d(totals.dense_resident_cols));
  for (const auto& ts : st.tenants) {
    sink.counter("spkadd_tenant_updates_applied_total",
                 "Updates folded into this tenant's running sum",
                 {{"service", "agg"}, {"tenant", ts.tenant}},
                 d(ts.updates_applied));
    sink.counter("spkadd_tenant_snapshots_total",
                 "Snapshots assembled for this tenant",
                 {{"service", "agg"}, {"tenant", ts.tenant}},
                 d(ts.snapshots));
  }
}

}  // namespace spkadd::service
