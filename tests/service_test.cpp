// AggService: sharding correctness, deterministic final sums under
// producer/worker interleavings, snapshot-during-ingest consistency,
// shutdown, and stats invariants. Runs under the TSAN CI leg (label:
// concurrency).
#include "service/agg_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "test_helpers.hpp"

namespace {

using spkadd::core::spkadd;
using spkadd::service::AggService;
using spkadd::service::RowPartition;
using spkadd::service::ServiceConfig;
using spkadd::testing::Csc;

/// Random sparse matrix whose values are small integers, so double
/// addition is exact and any fold order yields bit-identical sums.
Csc integer_matrix(std::int32_t rows, std::int32_t cols, std::size_t nnz,
                   std::uint64_t seed) {
  spkadd::util::Xoshiro256 rng(seed);
  spkadd::CooMatrix<std::int32_t, double> coo(rows, cols);
  coo.reserve(nnz);
  for (std::size_t i = 0; i < nnz; ++i) {
    const auto r = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(rows)));
    const auto c = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(cols)));
    coo.push(r, c, static_cast<double>(rng.bounded(7)) - 3.0);
  }
  coo.compress();
  return coo.to_csc();
}

// ------------------------------------------------------------ sharding
TEST(RowPartition, CoversRowsWithDisjointRanges) {
  const auto p = RowPartition::make(100, 3);
  std::int32_t covered = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    const auto [lo, hi] = p.range(s);
    EXPECT_EQ(lo, covered);
    covered = hi;
    for (std::int32_t r = lo; r < hi; ++r) EXPECT_EQ(p.shard_of(r), s);
  }
  EXPECT_EQ(covered, 100);
}

TEST(RowPartition, MoreShardsThanRowsLeavesTrailingEmptyRanges) {
  const auto p = RowPartition::make(2, 4);
  EXPECT_EQ(p.range(0), std::make_pair(0, 1));
  EXPECT_EQ(p.range(1), std::make_pair(1, 2));
  EXPECT_EQ(p.range(2), std::make_pair(2, 2));  // empty
  EXPECT_EQ(p.range(3), std::make_pair(2, 2));  // empty
}

TEST(PartitionRows, SlicesPartitionEntriesAndReassembleExactly) {
  const Csc m = spkadd::testing::random_matrix(97, 13, 400, 7);
  const auto p = RowPartition::make(97, 4);
  const auto slices = spkadd::service::partition_rows(m, p);
  ASSERT_EQ(slices.size(), 4u);
  std::size_t total = 0;
  for (std::size_t s = 0; s < slices.size(); ++s) {
    EXPECT_EQ(slices[s].rows(), m.rows());
    EXPECT_EQ(slices[s].cols(), m.cols());
    EXPECT_TRUE(slices[s].is_sorted());  // stable split keeps order
    const auto [lo, hi] = p.range(s);
    for (auto r : slices[s].row_idx()) {
      EXPECT_GE(r, lo);
      EXPECT_LT(r, hi);
    }
    total += slices[s].nnz();
  }
  EXPECT_EQ(total, m.nnz());
  // Disjoint row ranges: summing the slices rebuilds m bit-exactly.
  std::vector<Csc> parts(slices.begin(), slices.end());
  EXPECT_EQ(spkadd(parts), m);
}

// ------------------------------------------------------- determinism
TEST(AggService, SingleWorkerMatchesSequentialAccumulator) {
  // One shard, one worker, one producer: the service folds in exactly
  // submission order, so even non-exact (arbitrary double) values must
  // match a sequential Accumulator bit for bit.
  const auto updates = spkadd::testing::random_collection(12, 300, 9, 150, 3);
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.workers = 1;
  cfg.batch_window = 4;
  AggService svc(cfg);
  for (const auto& u : updates) EXPECT_TRUE(svc.submit("t", u));
  svc.drain();
  const auto snap = svc.snapshot("t");

  spkadd::core::Accumulator<> acc(300, 9, cfg.options, cfg.batch_window);
  for (const auto& u : updates) acc.add(u);
  EXPECT_EQ(snap.sum, acc.finalize());
  EXPECT_EQ(snap.updates_applied, updates.size());
}

TEST(AggService, DeterministicFinalSumAcrossConfigsAndInterleavings) {
  // Integer-valued updates make double addition exact, so the final sum
  // must be bit-identical to a one-shot spkadd no matter how producers
  // and workers interleave. Swept over shard/worker configurations.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 6;
  std::vector<std::vector<Csc>> streams(kProducers);
  std::vector<Csc> all;
  for (int p = 0; p < kProducers; ++p)
    for (int i = 0; i < kPerProducer; ++i) {
      streams[p].push_back(integer_matrix(
          257, 11, 180, static_cast<std::uint64_t>(p * 100 + i)));
      all.push_back(streams[p].back());
    }
  const Csc expected = spkadd(all);

  struct Config {
    std::size_t shards, workers, window, burst;
  };
  // burst = 1 is the pre-burst per-update flush path; the larger bursts
  // exercise batch flushing and grouped per-shard folding.
  for (const Config c :
       {Config{1, 2, 4, 1}, Config{4, 4, 2, 8}, Config{3, 2, 8, 3}}) {
    for (std::uint64_t round = 0; round < 2; ++round) {
      ServiceConfig cfg;
      cfg.shards = c.shards;
      cfg.workers = c.workers;
      cfg.batch_window = c.window;
      cfg.burst_size = c.burst;
      cfg.queue_capacity = 8;  // small: exercise backpressure too
      // Real watermark hysteresis under real traffic: producers get
      // throttled at 6 and released at 3 without changing the sum.
      cfg.queue_high_watermark = 6;
      cfg.queue_low_watermark = 3;
      AggService svc(cfg);
      std::vector<std::thread> producers;
      for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
          for (const auto& u : streams[static_cast<std::size_t>(p)]) {
            EXPECT_TRUE(svc.submit("grad", u));
            if ((p + round) % 2) std::this_thread::yield();
          }
        });
      for (auto& t : producers) t.join();
      svc.drain();
      const auto snap = svc.snapshot("grad");
      EXPECT_EQ(snap.sum, expected)
          << "shards=" << c.shards << " workers=" << c.workers
          << " window=" << c.window << " round=" << round;
      EXPECT_EQ(snap.updates_applied,
                static_cast<std::uint64_t>(kProducers * kPerProducer));
    }
  }
}

TEST(AggService, BurstedSingleLaneStillMatchesSequentialAccumulator) {
  // Same bit-for-bit pin as above, but with burst batching active and a
  // fast deadline flusher racing the producer: batching may change WHEN
  // updates reach the shard, never in WHAT order, so even arbitrary
  // double values must match a sequential Accumulator exactly.
  const auto updates = spkadd::testing::random_collection(13, 300, 9, 150, 5);
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.workers = 1;
  cfg.batch_window = 4;
  cfg.burst_size = 4;
  cfg.flush_deadline_us = 200;  // some bursts flush by deadline instead
  AggService svc(cfg);
  for (const auto& u : updates) {
    EXPECT_TRUE(svc.submit("t", u));
    if (u.nnz() % 3 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  svc.drain();
  spkadd::core::Accumulator<> acc(300, 9, cfg.options, cfg.batch_window);
  for (const auto& u : updates) acc.add(u);
  EXPECT_EQ(svc.snapshot("t").sum, acc.finalize());
  EXPECT_EQ(svc.snapshot("t").updates_applied, updates.size());
}

// ------------------------------------------------------- consistency
TEST(AggService, SnapshotDuringIngestNeverObservesTornUpdates) {
  // Every update writes value 1 at one row per shard (column 0). A torn
  // apply would leave those rows unequal in a snapshot; the tenant
  // apply lock must make each update all-or-nothing.
  constexpr std::size_t kShards = 4;
  constexpr std::int32_t kRows = 64;
  constexpr int kUpdates = 60;
  const auto part = RowPartition::make(kRows, kShards);
  spkadd::CooMatrix<std::int32_t, double> coo(kRows, 1);
  for (std::size_t s = 0; s < kShards; ++s)
    coo.push(part.range(s).first, 0, 1.0);
  coo.compress();
  const Csc update = coo.to_csc();

  ServiceConfig cfg;
  cfg.shards = kShards;
  cfg.workers = 2;
  cfg.batch_window = 3;
  AggService svc(cfg);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int i = 0; i < kUpdates; ++i) EXPECT_TRUE(svc.submit("c", update));
    done.store(true);
  });
  int observed = 0;
  while (!done.load() || observed == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    AggService::Snapshot snap;
    try {
      snap = svc.snapshot("c");
    } catch (const std::invalid_argument&) {
      continue;  // tenant not created yet
    }
    ++observed;
    const double first = snap.sum.at(part.range(0).first, 0);
    for (std::size_t s = 1; s < kShards; ++s)
      EXPECT_EQ(snap.sum.at(part.range(s).first, 0), first)
          << "torn update visible in snapshot " << snap.epoch;
    EXPECT_LE(first, static_cast<double>(kUpdates));
  }
  producer.join();
  svc.drain();
  const auto final_snap = svc.snapshot("c");
  for (std::size_t s = 0; s < kShards; ++s)
    EXPECT_EQ(final_snap.sum.at(part.range(s).first, 0),
              static_cast<double>(kUpdates));
  EXPECT_GE(final_snap.epoch, static_cast<std::uint64_t>(observed));
}

// ------------------------------------------------------------ tenants
TEST(AggService, TenantsAreIsolatedAndShapeChecked) {
  ServiceConfig cfg;
  cfg.shards = 2;
  AggService svc(cfg);
  const Csc a = integer_matrix(50, 4, 40, 1);
  const Csc b = integer_matrix(80, 6, 40, 2);
  EXPECT_TRUE(svc.submit("a", a));
  EXPECT_TRUE(svc.submit("b", b));
  EXPECT_TRUE(svc.submit("a", a));
  svc.drain();
  EXPECT_EQ(svc.snapshot("a").sum, spkadd(std::vector<Csc>{a, a}));
  EXPECT_EQ(svc.snapshot("b").sum, spkadd(std::vector<Csc>{b}));
  // A wrong-shape update to an existing tenant is rejected at submit.
  EXPECT_THROW(svc.submit("a", b), std::invalid_argument);
  EXPECT_THROW(svc.snapshot("nope"), std::invalid_argument);
}

TEST(AggService, SnapshotOfIdleTenantIsAllZero) {
  ServiceConfig cfg;
  cfg.shards = 3;
  AggService svc(cfg);
  EXPECT_TRUE(svc.submit("t", Csc(10, 3)));  // empty update
  svc.drain();
  const auto snap = svc.snapshot("t");
  EXPECT_EQ(snap.sum.rows(), 10);
  EXPECT_EQ(snap.sum.cols(), 3);
  EXPECT_EQ(snap.sum.nnz(), 0u);
  EXPECT_EQ(snap.epoch, 1u);
}

// ----------------------------------------------------------- shutdown
TEST(AggService, StopFoldsBacklogThenRejects) {
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.workers = 1;
  const Csc u = integer_matrix(40, 5, 30, 9);
  AggService svc(cfg);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(svc.submit("t", u));
  svc.stop();  // close + drain backlog + join
  EXPECT_FALSE(svc.submit("t", u));
  Csc spare = u;
  EXPECT_FALSE(svc.try_submit("t", std::move(spare)));
  const auto st = svc.stats();
  EXPECT_EQ(st.applied, 10u);
  EXPECT_EQ(st.rejected, 2u);
  std::vector<Csc> ten(10, u);
  EXPECT_EQ(svc.snapshot("t").sum, spkadd(ten));
}

// ------------------------------------------------------- burst ingest
TEST(AggService, DrainFlushesPartialBurstBuffers) {
  // A burst buffer far larger than the traffic and a flusher that
  // effectively never fires: drain() alone must still deliver every
  // staged update, or "drain then snapshot" silently loses the tail.
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.workers = 2;
  cfg.burst_size = 64;
  cfg.flush_deadline_us = 10'000'000;
  AggService svc(cfg);
  std::vector<Csc> updates;
  for (int i = 0; i < 5; ++i) {
    updates.push_back(integer_matrix(70, 6, 50, 40 + i));
    EXPECT_TRUE(svc.submit("t", updates.back()));
  }
  svc.drain();
  const auto st = svc.stats();
  EXPECT_EQ(st.applied, 5u);
  EXPECT_GE(st.ingest.flushes_drain, 1u);
  EXPECT_EQ(st.ingest.flushes_full, 0u);  // buffer never filled
  EXPECT_EQ(st.max_burst, 5u);     // one five-update burst
  EXPECT_EQ(svc.snapshot("t").sum, spkadd(updates));
}

TEST(AggService, StopFlushesPartialBurstBuffers) {
  // Shutdown gives the same guarantee as drain(): no update accepted by
  // submit() is lost in a half-full burst buffer.
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.workers = 1;
  cfg.burst_size = 64;
  cfg.flush_deadline_us = 10'000'000;
  AggService svc(cfg);
  std::vector<Csc> updates;
  for (int i = 0; i < 5; ++i) {
    updates.push_back(integer_matrix(70, 6, 50, 60 + i));
    EXPECT_TRUE(svc.submit("t", updates.back()));
  }
  svc.stop();
  const auto st = svc.stats();
  EXPECT_EQ(st.applied, 5u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_GE(st.ingest.flushes_drain, 1u);
  EXPECT_EQ(svc.snapshot("t").sum, spkadd(updates));
}

TEST(AggService, DeadlineFlushDeliversLoneUpdate) {
  // One update, a 64-deep buffer, and no drain: only the background
  // deadline flusher can deliver it. A stranded lone update is exactly
  // the failure mode flush_deadline_us exists to rule out.
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.workers = 1;
  cfg.burst_size = 64;
  cfg.flush_deadline_us = 1000;
  AggService svc(cfg);
  EXPECT_TRUE(svc.submit("t", integer_matrix(40, 4, 30, 11)));
  // Poll for the counter too: the worker can apply the update before
  // the flusher (which pushes first, then counts) bumps its counter.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((svc.stats().applied == 0 ||
          svc.stats().ingest.flushes_deadline == 0) &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto st = svc.stats();
  EXPECT_EQ(st.applied, 1u);
  EXPECT_GE(st.ingest.flushes_deadline, 1u);
  EXPECT_EQ(st.ingest.flushes_full, 0u);
}

TEST(AggService, ConfigValidationRejectsNonsense) {
  ServiceConfig cfg;
  cfg.shards = 0;
  EXPECT_THROW(AggService svc(cfg), std::invalid_argument);
  ServiceConfig cfg2;
  cfg2.batch_window = 0;
  EXPECT_THROW(AggService svc(cfg2), std::invalid_argument);
  ServiceConfig cfg3;
  cfg3.queue_capacity = 0;
  EXPECT_THROW(AggService svc(cfg3), std::invalid_argument);
}

TEST(AggService, RejectsUnsortedUpdatesWithoutPoisoningStagedBatches) {
  // The config declares inputs sorted (default), so an unsorted update
  // is invalid traffic. It must be dropped all-or-nothing BEFORE any
  // slice is staged — not std::terminate the worker, not poison a
  // half-full batch window so later folds or snapshots throw, and not
  // take already-staged good updates down with it.
  for (const std::size_t window : {1u, 4u}) {
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.workers = 1;
    cfg.batch_window = window;
    cfg.options.method = spkadd::core::Method::Heap;
    AggService svc(cfg);
    Csc unsorted = spkadd::testing::random_matrix(50, 4, 60, 3);
    spkadd::gen::shuffle_columns(unsorted, 99);
    ASSERT_FALSE(unsorted.is_sorted());
    const Csc good = integer_matrix(50, 4, 40, 4);
    EXPECT_TRUE(svc.submit("t", good));
    EXPECT_TRUE(svc.submit("t", good));  // staged, unfolded at window=4
    EXPECT_TRUE(svc.submit("t", unsorted));  // dropped, counted
    EXPECT_TRUE(svc.submit("t", good));
    svc.drain();
    const auto st = svc.stats();
    EXPECT_EQ(st.applied, 3u) << "window=" << window;
    EXPECT_EQ(st.apply_errors, 1u) << "window=" << window;
    // Snapshot must not throw, and every good update must survive.
    EXPECT_EQ(svc.snapshot("t").sum,
              spkadd(std::vector<Csc>{good, good, good}))
        << "window=" << window;
  }
}

TEST(AggService, ValidateRejectsFoldFatalMethodConfig) {
  // A merge-family method with inputs declared unsorted would throw on
  // every fold; the constructor must refuse it outright.
  ServiceConfig cfg;
  cfg.options.method = spkadd::core::Method::Heap;
  cfg.options.inputs_sorted = false;
  EXPECT_THROW(AggService svc(cfg), std::invalid_argument);
}

// -------------------------------------------------------------- stats
TEST(AggService, StatsAccountForEveryFoldedNonzero) {
  ServiceConfig cfg;
  cfg.shards = 3;
  cfg.workers = 2;
  cfg.batch_window = 2;
  AggService svc(cfg);
  std::size_t total_nnz = 0;
  for (int i = 0; i < 8; ++i) {
    Csc u = integer_matrix(120, 6, 90, static_cast<std::uint64_t>(i));
    total_nnz += u.nnz();
    EXPECT_TRUE(svc.submit("t", std::move(u)));
  }
  svc.drain();
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, 8u);
  EXPECT_EQ(st.applied, 8u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_GE(st.queue_high_water, 1u);
  EXPECT_LE(st.queue_high_water, cfg.queue_capacity);
  ASSERT_EQ(st.shards.size(), 3u);
  std::uint64_t shard_nnz = 0, flushes = 0;
  for (const auto& sh : st.shards) {
    shard_nnz += sh.folded_nnz;
    flushes += sh.flushes;
  }
  EXPECT_EQ(shard_nnz, total_nnz);  // slices partition every entry
  EXPECT_GE(flushes, 1u);
  ASSERT_EQ(st.tenants.size(), 1u);
  EXPECT_EQ(st.tenants[0].updates_applied, 8u);
  EXPECT_EQ(st.tenants[0].folded_nnz, total_nnz);
  EXPECT_EQ(st.latency.count, 8u);
  EXPECT_LE(st.latency.p50, st.latency.p99);
  EXPECT_GT(st.latency.p99, 0.0);
}

TEST(AggService, StatsIncludeIngestBurstCounters) {
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.workers = 1;
  cfg.burst_size = 4;
  cfg.flush_deadline_us = 1'000'000;  // only full-buffer flushes here
  AggService svc(cfg);
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(svc.submit(
        "t", integer_matrix(60, 5, 40, static_cast<std::uint64_t>(i))));
  svc.drain();
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, 8u);
  // Every update the service accepted went through a counted burst.
  EXPECT_EQ(st.burst_updates, st.submitted);
  EXPECT_GE(st.bursts, 2u);
  EXPECT_GE(st.ingest.flushes_full, 2u);
  EXPECT_EQ(st.max_burst, 4u);
  EXPECT_GT(st.avg_burst(), 1.0);
}

TEST(LatencyHistogram, QuantilesClampedToRecordedMax) {
  // The top occupied bucket's upper bound can exceed every recorded
  // value (log buckets are up to 12.5% wide); a reported p99 above the
  // true max is a lie operators will chase. Quantiles must clamp.
  spkadd::service::LatencyHistogram h;
  h.record(1'000'000'001);  // 1.000000001 s; its bucket tops out higher
  const auto s = h.summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.max, 1.000000001);
  EXPECT_DOUBLE_EQ(s.p50, s.max);
  EXPECT_DOUBLE_EQ(s.p99, s.max);
  // Quantiles landing in lower buckets stay bucket-quantized but can
  // never overshoot the maximum either.
  h.record(1000);
  const auto s2 = h.summary();
  EXPECT_EQ(s2.count, 2u);
  EXPECT_LE(s2.p50, s2.p99);
  EXPECT_LE(s2.p99, s2.max);
}

TEST(AggService, HybridFoldsMatchOneShotAndReportChunkMix) {
  // The per-chunk planner as the shard fold method: the concurrent
  // sharded sum must stay bit-identical to one-shot spkadd (integer
  // values), and the per-shard chunk-dispatch counters must surface the
  // kernel mix through ServiceStats.
  std::vector<Csc> updates;
  for (int i = 0; i < 16; ++i)
    updates.push_back(
        integer_matrix(257, 11, 180, static_cast<std::uint64_t>(900 + i)));
  const Csc expected = spkadd(updates);

  ServiceConfig cfg;
  cfg.shards = 3;
  cfg.workers = 2;
  cfg.batch_window = 4;
  cfg.options.method = spkadd::core::Method::Auto;
  AggService svc(cfg);
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p)
    producers.emplace_back([&, p] {
      for (int i = p; i < 16; i += 2)
        EXPECT_TRUE(svc.submit("t", updates[static_cast<std::size_t>(i)]));
    });
  for (auto& t : producers) t.join();
  svc.drain();
  EXPECT_EQ(svc.snapshot("t").sum, expected);

  const auto st = svc.stats();
  std::uint64_t chunks = 0;
  for (const auto& sh : st.shards) chunks += sh.counters.chunks_total();
  EXPECT_GT(chunks, 0u);
}

}  // namespace
