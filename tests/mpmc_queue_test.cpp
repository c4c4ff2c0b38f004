// BoundedMpmcQueue: FIFO order, capacity/backpressure, shutdown
// semantics, and a multi-producer/multi-consumer stress run, all through
// the burst API. These are the tests the TSAN CI leg exercises (label:
// concurrency).
#include "util/mpmc_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace {

using spkadd::util::BoundedMpmcQueue;

/// Blocking one-item push_burst; true iff the item was admitted.
template <class T>
bool push1(BoundedMpmcQueue<T>& q, T item) {
  std::vector<T> burst{std::move(item)};
  return q.push_burst(burst) == 1;
}

/// Non-blocking one-item try_push_burst; true iff the item was admitted.
template <class T>
bool try_push1(BoundedMpmcQueue<T>& q, T item) {
  std::vector<T> burst{std::move(item)};
  return q.try_push_burst(burst);
}

/// Blocking one-item pop_burst; nullopt once closed and drained.
template <class T>
std::optional<T> pop1(BoundedMpmcQueue<T>& q) {
  std::vector<T> out;
  if (q.pop_burst(out, 1) == 0) return std::nullopt;
  return std::move(out.front());
}

TEST(MpmcQueue, FifoSingleThreaded) {
  BoundedMpmcQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(push1(q, i));
  for (int i = 0; i < 8; ++i) {
    auto v = pop1(q);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(MpmcQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedMpmcQueue<int>(0), std::invalid_argument);
}

TEST(MpmcQueue, TryPushRespectsCapacity) {
  BoundedMpmcQueue<int> q(2);
  EXPECT_TRUE(try_push1(q, 1));
  EXPECT_TRUE(try_push1(q, 2));
  std::vector<int> c{3};
  EXPECT_FALSE(q.try_push_burst(c));     // full
  EXPECT_EQ(c, (std::vector<int>{3}));  // untouched on failure
  ASSERT_TRUE(pop1(q).has_value());
  EXPECT_TRUE(q.try_push_burst(c));
}

// A rejected blocking push must leave the items in the caller's hands,
// so the caller can account or retry exactly what it offered.
TEST(MpmcQueue, PushHandsItemBackWhenClosed) {
  BoundedMpmcQueue<std::vector<int>> q(2);
  q.close();
  std::vector<std::vector<int>> burst{{1, 2, 3}};
  EXPECT_EQ(q.push_burst(burst), 0u);
  ASSERT_EQ(burst.size(), 1u);
  EXPECT_EQ(burst.front(), (std::vector<int>{1, 2, 3}));
}

TEST(MpmcQueue, HighWaterTracksDeepestBacklog) {
  BoundedMpmcQueue<int> q(4);
  EXPECT_TRUE(push1(q, 1));
  EXPECT_TRUE(push1(q, 2));
  EXPECT_TRUE(push1(q, 3));
  (void)pop1(q);
  (void)pop1(q);
  (void)pop1(q);
  EXPECT_TRUE(push1(q, 4));
  EXPECT_EQ(q.high_water(), 3u);
}

TEST(MpmcQueue, BlockingPushUnblocksWhenSpaceOpens) {
  BoundedMpmcQueue<int> q(1);
  EXPECT_TRUE(push1(q, 1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(push1(q, 2));  // blocks until the consumer pops
    pushed.store(true);
  });
  // The producer cannot complete while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  auto v = pop1(q);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(pop1(q).value(), 2);
}

TEST(MpmcQueue, CloseWakesBlockedConsumers) {
  BoundedMpmcQueue<int> q(4);
  std::vector<std::thread> consumers;
  std::atomic<int> drained{0};
  for (int i = 0; i < 3; ++i)
    consumers.emplace_back([&] {
      std::vector<int> out;
      while (q.pop_burst(out, 4) != 0) out.clear();
      drained.fetch_add(1);
    });
  q.close();
  for (auto& c : consumers) c.join();
  EXPECT_EQ(drained.load(), 3);
}

TEST(MpmcQueue, CloseDrainsBacklogThenRejects) {
  BoundedMpmcQueue<int> q(4);
  EXPECT_TRUE(push1(q, 1));
  EXPECT_TRUE(push1(q, 2));
  q.close();
  EXPECT_FALSE(push1(q, 3));       // rejected after close
  EXPECT_FALSE(try_push1(q, 3));
  EXPECT_EQ(pop1(q).value(), 1);  // backlog still poppable
  EXPECT_EQ(pop1(q).value(), 2);
  EXPECT_FALSE(pop1(q).has_value());  // closed and drained
  EXPECT_TRUE(q.closed());
}

TEST(MpmcQueue, CloseWakesBlockedProducer) {
  BoundedMpmcQueue<int> q(1);
  EXPECT_TRUE(push1(q, 1));
  std::atomic<bool> rejected{false};
  std::thread producer([&] {
    rejected.store(!push1(q, 2));  // blocked on full, then closed
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
  EXPECT_TRUE(rejected.load());
}

TEST(MpmcQueue, PushBurstPreservesFifo) {
  BoundedMpmcQueue<int> q(8);
  std::vector<int> burst{0, 1, 2, 3, 4};
  EXPECT_EQ(q.push_burst(burst), 5u);
  EXPECT_TRUE(burst.empty());  // fully admitted
  for (int i = 0; i < 5; ++i) EXPECT_EQ(pop1(q).value(), i);
}

// A burst larger than the queue's free space is admitted in chunks: the
// producer blocks between chunks while a consumer makes room, and every
// item still arrives exactly once, in order.
TEST(MpmcQueue, PushBurstChunksThroughConsumer) {
  BoundedMpmcQueue<int> q(4);
  std::vector<int> burst(16);
  for (int i = 0; i < 16; ++i) burst[static_cast<std::size_t>(i)] = i;
  std::thread producer([&] { EXPECT_EQ(q.push_burst(burst), 16u); });
  for (int i = 0; i < 16; ++i) EXPECT_EQ(pop1(q).value(), i);
  producer.join();
  EXPECT_TRUE(burst.empty());
}

// close() while a burst is mid-flight: the pushed prefix is consumable,
// the unpushed tail comes back to the producer (never destroyed).
TEST(MpmcQueue, PushBurstHandsBackRemainderOnClose) {
  BoundedMpmcQueue<int> q(2);
  std::vector<int> burst{10, 11, 12, 13, 14};
  std::atomic<std::size_t> pushed{0};
  std::thread producer([&] { pushed.store(q.push_burst(burst)); });
  // Let the producer fill the queue and block on the second chunk.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  EXPECT_EQ(pushed.load(), 2u);
  EXPECT_EQ(burst, (std::vector<int>{12, 13, 14}));  // the unpushed tail
  EXPECT_EQ(pop1(q).value(), 10);  // prefix still drains after close
  EXPECT_EQ(pop1(q).value(), 11);
  EXPECT_FALSE(pop1(q).has_value());
}

TEST(MpmcQueue, TryPushBurstAllOrNothing) {
  BoundedMpmcQueue<int> q(4);
  std::vector<int> first{1, 2, 3};
  EXPECT_TRUE(q.try_push_burst(first));
  EXPECT_TRUE(first.empty());
  std::vector<int> second{4, 5};  // only one slot free: must not split
  EXPECT_FALSE(q.try_push_burst(second));
  EXPECT_EQ(second, (std::vector<int>{4, 5}));  // untouched on failure
  EXPECT_EQ(q.size(), 3u);
  (void)pop1(q);
  EXPECT_TRUE(q.try_push_burst(second));  // two slots free now
  EXPECT_EQ(pop1(q).value(), 2);
  EXPECT_EQ(pop1(q).value(), 3);
  EXPECT_EQ(pop1(q).value(), 4);
  EXPECT_EQ(pop1(q).value(), 5);
}

// Hysteresis: admission shuts off at the high watermark and does NOT
// come back until the depth falls to the low watermark — a queue
// hovering between the two stays closed to producers.
TEST(MpmcQueue, WatermarkHysteresisGatesAdmission) {
  BoundedMpmcQueue<int> q(8, /*high_watermark=*/6, /*low_watermark=*/3);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(try_push1(q, i));
  EXPECT_FALSE(try_push1(q, 100));  // throttled at high
  (void)pop1(q);
  (void)pop1(q);
  EXPECT_EQ(q.size(), 4u);  // above low: still throttled
  EXPECT_FALSE(try_push1(q, 100));
  (void)pop1(q);
  EXPECT_EQ(q.size(), 3u);  // at low: released
  EXPECT_TRUE(try_push1(q, 100));
}

// A blocking producer throttled at the high watermark is released only
// by the drain to the low watermark, and the throttle is counted.
TEST(MpmcQueue, WatermarkReleaseWakesBlockedProducer) {
  BoundedMpmcQueue<int> q(8, /*high_watermark=*/4, /*low_watermark=*/2);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(push1(q, i));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(push1(q, 99));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // throttled at the high watermark
  (void)pop1(q);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // size 3 > low: hysteresis holds
  (void)pop1(q);                // size 2 == low: released
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_GE(q.throttle_events(), 1u);
  EXPECT_GE(q.throttle_seconds(), 0.0);
}

TEST(MpmcQueue, PopBurstDrainsUpToMax) {
  BoundedMpmcQueue<int> q(8);
  std::vector<int> burst{0, 1, 2, 3, 4};
  EXPECT_EQ(q.push_burst(burst), 5u);
  std::vector<int> out;
  EXPECT_EQ(q.pop_burst(out, 3), 3u);  // capped at max_items
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.pop_burst(out, 8), 2u);  // appends the remainder
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  q.close();
  EXPECT_EQ(q.pop_burst(out, 8), 0u);  // closed and drained: exit signal
}

// P producers pushing bursts of 1..5 items x C consumers popping up to 4
// at a time; every pushed value is popped exactly once and each
// producer's own sequence arrives in order (per-producer FIFO).
TEST(MpmcQueue, MpmcStressPreservesItemsAndPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  BoundedMpmcQueue<std::pair<int, int>> q(8);  // small: force contention

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&q, p] {
      std::vector<std::pair<int, int>> burst;
      for (int i = 0; i < kPerProducer;) {
        const int n = std::min(1 + (i + p) % 5, kPerProducer - i);
        for (int j = 0; j < n; ++j) burst.emplace_back(p, i + j);
        ASSERT_EQ(q.push_burst(burst), static_cast<std::size_t>(n));
        i += n;
      }
    });

  std::mutex sink_mutex;
  std::vector<std::vector<int>> sunk(kProducers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&] {
      std::vector<std::vector<int>> local(kProducers);
      std::vector<std::pair<int, int>> out;
      while (q.pop_burst(out, 4) != 0) {
        for (const auto& [p, i] : out) local[p].push_back(i);
        out.clear();
      }
      std::lock_guard<std::mutex> lock(sink_mutex);
      for (int p = 0; p < kProducers; ++p) {
        // A single consumer must see producer p's items in order.
        for (std::size_t i = 1; i < local[p].size(); ++i)
          EXPECT_LT(local[p][i - 1], local[p][i]);
        sunk[p].insert(sunk[p].end(), local[p].begin(), local[p].end());
      }
    });

  for (auto& p : producers) p.join();
  q.close();
  for (auto& c : consumers) c.join();

  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(sunk[p].size(), static_cast<std::size_t>(kPerProducer));
    std::sort(sunk[p].begin(), sunk[p].end());
    for (int i = 0; i < kPerProducer; ++i) EXPECT_EQ(sunk[p][i], i);
  }
}

}  // namespace
