// Bounded multi-producer/multi-consumer burst queue — the queue inside
// the aggregation services' ingest spine (service/ingest_spine.hpp).
//
// Design goals, in order: correctness under ThreadSanitizer, bounded
// memory (backpressure instead of unbounded buffering), and clean
// shutdown semantics. A mutex + two condition variables is the simplest
// structure that delivers all three; the service's unit of work is a
// whole sparse matrix, so per-element queue overhead is noise next to
// the fold it triggers — and every push and pop moves a whole burst
// under one lock acquisition.
//
// Semantics:
//   * push_burst() blocks while the queue is throttled (backpressure)
//     and hands the unpushed items back once the queue is closed — a
//     failed push never silently destroys the caller's items (the
//     caller can count or retry the drop). try_push_burst() is its
//     non-blocking, all-or-nothing form.
//   * Watermark hysteresis (the FlexiCAS transaction-queue pattern):
//     producers throttle when the depth reaches `high_watermark` and
//     are released only once consumers drain it to `low_watermark`,
//     instead of hard-blocking at capacity and waking on every pop.
//     A burst admitted below the high watermark may overshoot it (up
//     to `capacity`, the hard memory bound); the producers then stay
//     throttled until the low watermark. Defaults (high = capacity,
//     low = high) reproduce plain bounded-queue blocking.
//   * pop_burst() blocks while the queue is empty and returns 0 only
//     when the queue is closed AND drained, so close() lets consumers
//     finish the backlog before they exit.
//   * high_water() reports the deepest the queue has ever been, and
//     throttle_events()/throttle_seconds() how often and how long
//     producers sat blocked on the watermark — the stats the service
//     exposes to show how close ingest ran to the backpressure limit.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

namespace spkadd::util {

template <class T>
class BoundedMpmcQueue {
 public:
  /// `high_watermark` 0 defaults to `capacity`; `low_watermark` 0
  /// defaults to `high_watermark` (no hysteresis). Requires
  /// 1 <= low <= high <= capacity.
  explicit BoundedMpmcQueue(std::size_t capacity,
                            std::size_t high_watermark = 0,
                            std::size_t low_watermark = 0)
      : cap_(capacity),
        high_(high_watermark != 0 ? high_watermark : capacity),
        low_(low_watermark != 0 ? low_watermark : high_) {
    if (capacity < 1)
      throw std::invalid_argument("BoundedMpmcQueue: capacity must be >= 1");
    if (high_ > cap_)
      throw std::invalid_argument(
          "BoundedMpmcQueue: high watermark exceeds capacity");
    if (low_ < 1 || low_ > high_)
      throw std::invalid_argument(
          "BoundedMpmcQueue: need 1 <= low watermark <= high watermark");
  }

  BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
  BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

  /// Enqueue a whole burst with ONE lock acquisition per admitted chunk
  /// (one, in the common burst <= free-space case), blocking while
  /// throttled. Items are admitted in order; a burst admitted below the
  /// high watermark may overshoot it up to `capacity`. Returns the
  /// number of items pushed; on close the UNPUSHED tail is left in
  /// `items` (pushed ones are erased), so the caller can retire them.
  /// On full success `items` comes back empty.
  std::size_t push_burst(std::vector<T>& items) {
    std::size_t pushed = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (pushed < items.size()) {
        wait_admissible(lock);
        if (closed_) break;
        const std::size_t room = cap_ - items_.size();
        const std::size_t take = std::min(room, items.size() - pushed);
        for (std::size_t i = 0; i < take; ++i)
          items_.push_back(std::move(items[pushed + i]));
        pushed += take;
        after_push_locked();
        // Wake consumers for this chunk; they make the room the next
        // chunk waits for.
        not_empty_.notify_all();
      }
    }
    items.erase(items.begin(),
                items.begin() + static_cast<std::ptrdiff_t>(pushed));
    return pushed;
  }

  /// Non-blocking all-or-nothing burst enqueue: either every item is
  /// admitted (items comes back empty) or none is (items untouched).
  [[nodiscard]] bool try_push_burst(std::vector<T>& items) {
    if (items.empty()) return true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || !admissible_locked() ||
          items.size() > cap_ - items_.size())
        return false;
      for (auto& item : items) items_.push_back(std::move(item));
      after_push_locked();
    }
    not_empty_.notify_all();
    items.clear();
    return true;
  }

  /// Dequeue up to `max_items` in one lock acquisition, blocking while
  /// empty. Appends to `out` and returns the count — 0 only once the
  /// queue is closed and fully drained (the consumer's exit signal).
  std::size_t pop_burst(std::vector<T>& out, std::size_t max_items) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    const std::size_t take = std::min(max_items, items_.size());
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    const bool released = after_pop_locked();
    lock.unlock();
    if (take != 0) {
      if (released)
        not_full_.notify_all();
      else
        not_full_.notify_one();
    }
    return take;
  }

  /// Reject all future pushes and wake every waiter. Items already
  /// queued remain poppable (shutdown drains the backlog). Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// Deepest the queue has ever been (never exceeds capacity).
  [[nodiscard]] std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return high_water_;
  }

  /// Pushes that actually blocked on the watermark.
  [[nodiscard]] std::uint64_t throttle_events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return throttle_events_;
  }

  /// Total producer wall time spent blocked on the watermark.
  [[nodiscard]] double throttle_seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<double>(throttle_ns_) * 1e-9;
  }

 private:
  /// May a producer enqueue right now? Hysteresis: once the depth hits
  /// the high watermark, admission stays off until the low watermark.
  [[nodiscard]] bool admissible_locked() const {
    return !throttled_ && items_.size() < high_;
  }

  /// Block (tracking throttle time) until admission or close.
  void wait_admissible(std::unique_lock<std::mutex>& lock) {
    if (closed_ || admissible_locked()) return;
    ++throttle_events_;
    const auto t0 = std::chrono::steady_clock::now();
    not_full_.wait(lock, [&] { return closed_ || admissible_locked(); });
    throttle_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  void after_push_locked() {
    high_water_ = std::max(high_water_, items_.size());
    if (items_.size() >= high_) throttled_ = true;
  }

  /// Returns true when this pop released the throttle (callers then
  /// notify_all so every waiting producer re-checks admission).
  bool after_pop_locked() {
    if (throttled_ && items_.size() <= low_) {
      throttled_ = false;
      return true;
    }
    return false;
  }

  const std::size_t cap_;
  const std::size_t high_;
  const std::size_t low_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::size_t high_water_ = 0;
  std::uint64_t throttle_events_ = 0;
  std::uint64_t throttle_ns_ = 0;
  bool throttled_ = false;
  bool closed_ = false;
};

}  // namespace spkadd::util
