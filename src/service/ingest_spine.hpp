// IngestSpine — the concurrent ingest path both aggregation services
// run on, so each service is left with only its fold policy.
//
//   producers -- push_burst / try_push_burst --> [bounded MPMC queue,
//     (tickets issued per burst)                  watermark hysteresis]
//                                                           |
//   worker pool -- pop_burst --> fold(burst): the service's policy,
//     (tickets retired per burst)   row-range shards (AggService) or
//                                   time buckets (WindowedAggService)
//
// The spine owns the queue (FlexiCAS's XACT_QUEUE_HIGH/LOW/BURST
// pattern: producers throttle at the high watermark and are released
// at the low one; workers pop up to a burst at a time), the worker
// pool, the ticket accounting behind drain(), close-and-join in stop(),
// and the burst and fold counters every service exports. Tickets are
// issued per burst at push time and retired per burst after its fold,
// one progress-lock acquisition on each side; drain() waits for exactly
// the tickets issued before it, so completions of later updates can
// never satisfy an earlier drain.
//
// Also here: TenantRegistry, the name -> tenant map with get-or-create
// on first submit and a shape check on every later one, and
// for_each_tenant_group, the per-tenant grouping of a popped burst that
// lets a fold policy take each tenant's lock once per burst.
//
// Thread-safety contract: every public IngestSpine and TenantRegistry
// member is safe from any thread. The fold callback runs on the worker
// threads, concurrently with itself. The spine never touches the
// updates it carries, so it cannot affect a service's bit-identity
// guarantee; per-producer order survives the queue (FIFO) and the
// grouping (burst order within a tenant).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service_stats.hpp"
#include "util/mpmc_queue.hpp"
#include "util/thread_control.hpp"

namespace spkadd::service {

/// What a fold policy did with one popped burst. Updates counted in
/// neither field (e.g. a window's expired ones) still retire.
struct FoldCounts {
  std::uint64_t applied = 0;  ///< folded successfully
  std::uint64_t errors = 0;   ///< dropped by a throwing or invalid fold
};

/// `Task` is the unit the queue carries; it needs a `std::uint64_t
/// ticket` member the spine writes (and a `std::string tenant` for
/// for_each_tenant_group).
template <class Task>
class IngestSpine {
 public:
  using Fold = std::function<FoldCounts(std::vector<Task>&)>;

  /// Starts `workers` threads, each popping up to `cfg.burst_size`
  /// tasks at a time and handing the burst to `fold`. The queue takes
  /// `cfg.queue_capacity` and the watermarks `cfg.queue_high_watermark`
  /// / `cfg.queue_low_watermark` (0 defaults: high = capacity, low = 3/4
  /// of high). `pin_threads` pins worker i to CPU i mod online CPUs.
  /// Throws std::invalid_argument, prefixed with `owner`, on unusable
  /// knobs.
  template <class Config>
  IngestSpine(const char* owner, const Config& cfg, std::size_t workers,
              bool pin_threads, Fold fold)
      : burst_size_(cfg.burst_size),
        queue_(make_queue(cfg)),
        fold_(std::move(fold)) {
    if (workers < 1)
      throw std::invalid_argument(std::string(owner) +
                                  ": workers must be >= 1");
    if (burst_size_ < 1)
      throw std::invalid_argument(std::string(owner) +
                                  ": burst_size must be >= 1");
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      workers_.emplace_back([this, i, pin_threads] {
        if (pin_threads) (void)util::pin_current_thread_to_cpu(i);
        worker_loop();
      });
  }

  ~IngestSpine() { stop(); }

  IngestSpine(const IngestSpine&) = delete;
  IngestSpine& operator=(const IngestSpine&) = delete;

  /// Producers ask before staging `n` updates: false, with the `n`
  /// counted rejected, once stop() has begun.
  [[nodiscard]] bool admit(std::size_t n) {
    if (!stopped_.load(std::memory_order_seq_cst)) return true;
    rejected_.fetch_add(n, std::memory_order_relaxed);
    return false;
  }

  /// Ticket and enqueue `tasks` as one burst, blocking while the queue
  /// is throttled. If the queue closes mid-burst the unpushed tail is
  /// retired and counted rejected. Returns the number pushed; `tasks`
  /// comes back empty either way.
  std::size_t push_burst(std::vector<Task>& tasks) {
    if (tasks.empty()) return 0;
    issue(tasks);
    const std::size_t pushed = queue_.push_burst(tasks);
    if (!tasks.empty()) {
      withdraw(tasks);
      rejected_.fetch_add(tasks.size(), std::memory_order_relaxed);
      tasks.clear();
    }
    if (pushed != 0) burst_hist_.record(pushed);
    return pushed;
  }

  /// Non-blocking all-or-nothing push_burst. True iff every task was
  /// pushed. On a closed queue the tasks are retired, counted rejected
  /// and cleared; on a saturated one they are left in `tasks` (a later
  /// push issues fresh tickets).
  bool try_push_burst(std::vector<Task>& tasks) {
    if (tasks.empty()) return true;
    const std::size_t n = tasks.size();
    issue(tasks);
    if (queue_.try_push_burst(tasks)) {
      burst_hist_.record(n);
      return true;
    }
    withdraw(tasks);
    if (queue_.closed()) {
      rejected_.fetch_add(n, std::memory_order_relaxed);
      tasks.clear();
    }
    return false;
  }

  /// Block until every task ticketed before this call has been folded
  /// (or dropped by its fold). Tasks pushed later do not extend the
  /// wait.
  void drain() {
    std::unique_lock<std::mutex> lock(progress_mutex_);
    const std::uint64_t cutoff = next_ticket_;
    progress_cv_.wait(lock, [&] {
      return pending_tickets_.empty() || *pending_tickets_.begin() >= cutoff;
    });
  }

  /// Mark the spine stopped, run `before_close` (a service pushes what
  /// it still has staged), then close the queue and join the workers,
  /// which fold the whole backlog first. Runs once; a concurrent call
  /// returns after the first finishes.
  template <class Fn>
  void stop(Fn&& before_close) {
    std::call_once(stop_once_, [&] {
      stopped_.store(true, std::memory_order_seq_cst);
      before_close();
      queue_.close();
      for (auto& w : workers_) w.join();
    });
  }
  void stop() { stop([] {}); }

  [[nodiscard]] SpineStats stats() const {
    SpineStats out;
    {
      std::lock_guard<std::mutex> lock(progress_mutex_);
      out.submitted = submitted_;
      out.applied = applied_;
      out.apply_errors = apply_errors_;
    }
    out.rejected = rejected_.load(std::memory_order_relaxed);
    out.queue_depth = queue_.size();
    out.queue_high_water = queue_.high_water();
    out.bursts = burst_hist_.total_count();
    out.burst_updates = burst_hist_.sum_ticks();
    out.max_burst = static_cast<std::size_t>(burst_hist_.max_ticks());
    out.throttle_events = queue_.throttle_events();
    out.throttle_seconds = queue_.throttle_seconds();
    return out;
  }

  /// Emit the spine's metric families for `st` (a stats() read) under
  /// `labels`, the owning service's label set.
  void export_metrics(obs::CollectorSink& sink, const obs::Labels& labels,
                      const SpineStats& st) const {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    sink.counter("spkadd_service_submitted_total",
                 "Updates accepted by submit() and handed to the queue",
                 labels, d(st.submitted));
    sink.counter("spkadd_service_applied_total",
                 "Updates fully folded", labels,
                 d(st.applied));
    sink.counter("spkadd_service_rejected_total",
                 "Updates refused (service stopped or queue closed)",
                 labels, d(st.rejected));
    sink.counter("spkadd_service_apply_errors_total",
                 "Updates dropped by a throwing fold", labels,
                 d(st.apply_errors));
    sink.gauge("spkadd_queue_depth", "Current ingest queue backlog",
               labels, d(st.queue_depth));
    sink.gauge("spkadd_queue_high_water", "Deepest ingest backlog seen",
               labels, d(st.queue_high_water));
    sink.counter("spkadd_ingest_bursts_total",
                 "Burst flushes into the ingest queue", labels,
                 d(st.bursts));
    sink.counter("spkadd_queue_throttle_events_total",
                 "Producer pushes blocked at the high watermark", labels,
                 d(st.throttle_events));
    sink.counter("spkadd_queue_throttle_seconds_total",
                 "Total producer time spent throttled", labels,
                 st.throttle_seconds);
    sink.histogram("spkadd_fold_seconds",
                   "Wall time folding one popped burst", labels,
                   fold_hist_, obs::Unit::kSeconds);
    sink.histogram("spkadd_ingest_burst_updates",
                   "Updates per burst pushed into the ingest queue", labels,
                   burst_hist_, obs::Unit::kCount);
  }

 private:
  template <class Config>
  static util::BoundedMpmcQueue<Task> make_queue(const Config& cfg) {
    const std::size_t high = cfg.queue_high_watermark != 0
                                 ? cfg.queue_high_watermark
                                 : cfg.queue_capacity;
    const std::size_t low = cfg.queue_low_watermark != 0
                                ? cfg.queue_low_watermark
                                : std::max<std::size_t>(1, high - high / 4);
    return util::BoundedMpmcQueue<Task>(cfg.queue_capacity, high, low);
  }

  void issue(std::vector<Task>& tasks) {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    for (auto& task : tasks) {
      task.ticket = next_ticket_++;
      pending_tickets_.insert(task.ticket);
    }
    submitted_ += tasks.size();
  }

  /// Undo issue() for tasks that never reached the queue.
  void withdraw(const std::vector<Task>& tasks) {
    {
      std::lock_guard<std::mutex> lock(progress_mutex_);
      for (const auto& task : tasks) pending_tickets_.erase(task.ticket);
      submitted_ -= tasks.size();
    }
    progress_cv_.notify_all();
  }

  void worker_loop() {
    std::vector<Task> burst;
    burst.reserve(burst_size_);
    // pop_burst returns 0 only once the queue is closed AND drained, so
    // shutdown folds the whole backlog before the workers exit.
    while (queue_.pop_burst(burst, burst_size_) != 0) {
      const std::uint64_t start = obs::Tracer::now_ns();
      const FoldCounts done = fold_(burst);
      fold_hist_.record(obs::Tracer::now_ns() - start);
      {
        std::lock_guard<std::mutex> lock(progress_mutex_);
        for (const auto& task : burst) pending_tickets_.erase(task.ticket);
        applied_ += done.applied;
        apply_errors_ += done.errors;
      }
      progress_cv_.notify_all();
      burst.clear();
    }
  }

  const std::size_t burst_size_;
  util::BoundedMpmcQueue<Task> queue_;
  Fold fold_;

  // Progress accounting, all guarded by progress_mutex_ so a drainer
  // can wait on the condition variable without lost wakeups.
  mutable std::mutex progress_mutex_;
  std::condition_variable progress_cv_;
  std::uint64_t next_ticket_ = 1;
  std::set<std::uint64_t> pending_tickets_;  ///< pushed, not folded
  std::uint64_t submitted_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t apply_errors_ = 0;
  std::atomic<std::uint64_t> rejected_{0};

  // Lock-free recording; bursts, burst updates and the largest burst
  // are burst_hist_'s count, sum and max.
  LatencyHistogram fold_hist_;   ///< per-burst fold wall time, ns
  LatencyHistogram burst_hist_;  ///< updates per pushed burst

  std::atomic<bool> stopped_{false};
  std::once_flag stop_once_;
  std::vector<std::thread> workers_;
};

/// Name -> tenant map: get-or-create on first submit, shape-checked on
/// every later one. Tenants are never removed, so a returned reference
/// stays valid for the registry's lifetime.
template <class Tenant>
class TenantRegistry {
 public:
  explicit TenantRegistry(const char* owner) : owner_(owner) {}

  /// nullptr when `name` is absent.
  [[nodiscard]] Tenant* find(const std::string& name) const {
    std::shared_lock lock(tenants_mutex_);
    auto it = tenants_.find(name);
    return it == tenants_.end() ? nullptr : it->second.tenant.get();
  }

  /// Look up `name`, creating it from make() (a std::unique_ptr<Tenant>)
  /// on first use. Throws std::invalid_argument when an existing
  /// tenant's shape differs from rows x cols.
  template <class Make>
  Tenant& get_or_create(const std::string& name, std::int32_t rows,
                        std::int32_t cols, Make&& make) {
    const auto check = [&](const Slot& slot) -> Tenant& {
      if (slot.rows != rows || slot.cols != cols)
        throw std::invalid_argument(
            std::string(owner_) +
            ": update shape does not match tenant '" + name + "'");
      return *slot.tenant;
    };
    {
      std::shared_lock lock(tenants_mutex_);
      auto it = tenants_.find(name);
      if (it != tenants_.end()) return check(it->second);
    }
    std::unique_lock lock(tenants_mutex_);
    auto it = tenants_.find(name);
    if (it != tenants_.end()) return check(it->second);
    return *tenants_.emplace(name, Slot{rows, cols, make()})
                .first->second.tenant;
  }

  /// fn(name, tenant) for every tenant in name order. fn runs outside
  /// the registry lock, so it may block on a tenant's own mutex.
  template <class Fn>
  void for_each(Fn&& fn) const {
    std::vector<std::pair<const std::string*, Tenant*>> all;
    {
      std::shared_lock lock(tenants_mutex_);
      for (const auto& [name, slot] : tenants_)
        all.emplace_back(&name, slot.tenant.get());
    }
    for (const auto& [name, tenant] : all) fn(*name, *tenant);
  }

 private:
  struct Slot {
    std::int32_t rows = 0;
    std::int32_t cols = 0;
    std::unique_ptr<Tenant> tenant;
  };

  const char* owner_;
  mutable std::shared_mutex tenants_mutex_;
  std::map<std::string, Slot> tenants_;
};

/// Call fn(tenant, group) once per distinct tenant in `burst`, where
/// `group` lists that tenant's task indices in burst order (= each
/// producer's submission order). Bursts are small (<= burst_size), so
/// linear grouping beats a map.
template <class Task, class Fn>
void for_each_tenant_group(const std::vector<Task>& burst, Fn&& fn) {
  std::vector<std::pair<const std::string*, std::vector<std::size_t>>>
      groups;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    auto it = std::find_if(
        groups.begin(), groups.end(),
        [&](const auto& g) { return *g.first == burst[i].tenant; });
    if (it == groups.end())
      groups.emplace_back(&burst[i].tenant, std::vector<std::size_t>{i});
    else
      it->second.push_back(i);
  }
  for (const auto& [tenant, group] : groups) fn(*tenant, group);
}

}  // namespace spkadd::service
