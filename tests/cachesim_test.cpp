// Cache model unit tests + the Table V property: sliding hash suffers fewer
// simulated LL misses than plain hash once tables outgrow the cache budget.
// Plus the CacheHierarchy layer: inclusion (an inner hit never counts an
// outer access), per-level stats accounting, and the single-level ==
// CacheModel equivalence.
#include <gtest/gtest.h>

#include <random>

#include "cachesim/cache_hierarchy.hpp"
#include "cachesim/cache_model.hpp"
#include "cachesim/traced_spkadd.hpp"
#include "gen/workload.hpp"
#include "test_helpers.hpp"

namespace {

using namespace spkadd::cachesim;
using spkadd::gen::Pattern;
using spkadd::gen::WorkloadSpec;

using Csc = spkadd::testing::Csc;

TEST(CacheModel, ColdMissesThenHits) {
  CacheModel cache(CacheConfig{1 << 12, 4, 64});
  EXPECT_FALSE(cache.access(0));       // cold miss
  EXPECT_TRUE(cache.access(0));        // hit
  EXPECT_TRUE(cache.access(63));       // same line
  EXPECT_FALSE(cache.access(64));      // next line
  EXPECT_EQ(cache.stats().accesses, 4u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_DOUBLE_EQ(cache.stats().miss_rate(), 0.5);
}

TEST(CacheModel, LruEvictsOldest) {
  // 1 set x 2 ways x 64B lines = 128B cache: set-conflicting lines evict LRU.
  CacheModel cache(CacheConfig{128, 2, 64});
  ASSERT_EQ(cache.sets(), 1u);
  cache.access(0 * 64);
  cache.access(1 * 64);
  EXPECT_TRUE(cache.access(0 * 64));   // refresh line 0
  cache.access(2 * 64);                // evicts line 1 (LRU)
  EXPECT_TRUE(cache.access(0 * 64));
  EXPECT_FALSE(cache.access(1 * 64));  // was evicted
}

TEST(CacheModel, AssociativityIsolatesSets) {
  // 2 sets: even lines -> set 0, odd lines -> set 1.
  CacheModel cache(CacheConfig{256, 2, 64});
  ASSERT_EQ(cache.sets(), 2u);
  cache.access(0 * 64);
  cache.access(2 * 64);
  cache.access(1 * 64);  // different set, no interference
  EXPECT_TRUE(cache.access(0 * 64));
  EXPECT_TRUE(cache.access(2 * 64));
}

TEST(CacheModel, WorkingSetLargerThanCacheThrashes) {
  CacheModel cache(CacheConfig{1 << 10, 4, 64});  // 16 lines
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t line = 0; line < 64; ++line) cache.access(line * 64);
  // Cyclic sweep over 4x capacity with LRU: every access misses.
  EXPECT_EQ(cache.stats().misses, cache.stats().accesses);
}

TEST(CacheModel, AccessRangeTouchesEveryLine) {
  CacheModel cache(CacheConfig{1 << 12, 4, 64});
  cache.access_range(10, 200);  // spans lines 0..3
  EXPECT_EQ(cache.stats().accesses, 4u);
  cache.access_range(0, 0);  // empty range is a no-op
  EXPECT_EQ(cache.stats().accesses, 4u);
}

TEST(CacheModel, RejectsBadConfig) {
  EXPECT_THROW(CacheModel(CacheConfig{1 << 12, 4, 63}), std::invalid_argument);
  EXPECT_THROW(CacheModel(CacheConfig{1 << 12, 0, 64}), std::invalid_argument);
}

TEST(CacheModel, ResetStatsKeepsContents) {
  CacheModel cache(CacheConfig{1 << 12, 4, 64});
  cache.access(0);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_TRUE(cache.access(0));  // still cached
}

TEST(CacheModel, CountsEvictionsAndHits) {
  // 1 set x 2 ways: the third distinct line evicts; cold fills do not count.
  CacheModel cache(CacheConfig{128, 2, 64});
  cache.access(0 * 64);
  cache.access(1 * 64);
  EXPECT_EQ(cache.stats().evictions, 0u);  // cold fills, no victim
  cache.access(2 * 64);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.access(2 * 64);  // hit
  EXPECT_EQ(cache.stats().hits(), 1u);
  EXPECT_EQ(cache.stats().accesses, cache.stats().hits() +
                                        cache.stats().misses);
}

// ------------------------------------------------------------- hierarchy

HierarchySpec two_level() {
  HierarchySpec spec;
  spec.levels.push_back(LevelSpec{"L1", 128, 2, 64, false});
  spec.levels.push_back(LevelSpec{"LLC", 1 << 12, 4, 64, true});
  return spec;
}

TEST(CacheHierarchy, InnerHitNeverCountsOuterAccess) {
  CacheHierarchy cache(two_level());
  EXPECT_FALSE(cache.access(0));  // cold: misses both, fills both
  EXPECT_EQ(cache.level_stats(1).accesses, 1u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(cache.access(0));
  // All five were L1 hits; the LLC never saw them (inclusion property).
  EXPECT_EQ(cache.level_stats(0).hits(), 5u);
  EXPECT_EQ(cache.level_stats(1).accesses, 1u);
}

TEST(CacheHierarchy, OuterLevelSeesExactlyInnerMisses) {
  CacheHierarchy cache(two_level());
  std::mt19937_64 rng(11);
  for (int i = 0; i < 2000; ++i)
    cache.access((rng() % 64) * 64);  // 64-line working set >> 2-line L1
  EXPECT_EQ(cache.level_stats(1).accesses, cache.level_stats(0).misses);
  EXPECT_GT(cache.level_stats(0).hits(), 0u);
  EXPECT_GT(cache.level_stats(1).hits(), 0u);  // L1-evicted lines re-hit LLC
}

TEST(CacheHierarchy, InclusiveFillRehitsOuterAfterInnerEviction) {
  CacheHierarchy cache(two_level());
  cache.access(0 * 64);
  cache.access(1 * 64);
  cache.access(2 * 64);  // evicts line 0 from the 2-way L1; LLC keeps it
  EXPECT_TRUE(cache.access(0 * 64));  // L1 miss, LLC hit
  EXPECT_EQ(cache.level_stats(1).hits(), 1u);
}

TEST(CacheHierarchy, SingleLevelReproducesCacheModelExactly) {
  const CacheConfig cfg{1 << 14, 8, 64};
  CacheModel flat(cfg);
  CacheHierarchy single(HierarchySpec::from_cli_spec("LLC:16K:8"));
  std::mt19937_64 rng(42);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t addr = rng() % (1 << 18);
    EXPECT_EQ(flat.access(addr), single.access(addr));
  }
  EXPECT_EQ(flat.stats().accesses, single.level_stats(0).accesses);
  EXPECT_EQ(flat.stats().misses, single.level_stats(0).misses);
  EXPECT_EQ(flat.stats().evictions, single.level_stats(0).evictions);
}

TEST(HierarchySpec, ValidatesShapeAndOrder) {
  HierarchySpec empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);
  HierarchySpec shrinking = two_level();
  shrinking.levels[1].bytes = 64;  // outer smaller than inner
  EXPECT_THROW(shrinking.validate(), std::invalid_argument);
  HierarchySpec zero = two_level();
  zero.levels[0].ways = 0;
  EXPECT_THROW(zero.validate(), std::invalid_argument);
}

TEST(HierarchySpec, FromCliSpecRoundTripsAndSharesLast) {
  const auto spec =
      HierarchySpec::from_cli_spec("L1:32K:8,L2:1M:16,LLC:8M:16");
  ASSERT_EQ(spec.levels.size(), 3u);
  EXPECT_FALSE(spec.levels[0].shared);
  EXPECT_FALSE(spec.levels[1].shared);
  EXPECT_TRUE(spec.levels[2].shared);
  EXPECT_EQ(spec.levels[2].bytes, 8ull << 20);
  EXPECT_EQ(spec.to_string(), "L1:32K:8,L2:1M:16,LLC:8M:16");
  EXPECT_THROW(HierarchySpec::from_cli_spec("LLC:8M:16,L1:32K:8"),
               std::invalid_argument);
}

// ---------------------------------------------------------------- traces
std::vector<Csc> workload(Pattern p, int k, int d) {
  WorkloadSpec spec;
  spec.pattern = p;
  spec.rows = 1 << 12;
  spec.cols = 8;
  spec.avg_nnz_per_col = d;
  spec.k = k;
  spec.seed = 7;
  return spkadd::gen::make_workload(spec);
}

/// Trace config over one shared level, given as a --cache-spec string.
TraceConfig llc_only(const std::string& llc, int threads, bool sliding) {
  TraceConfig cfg;
  cfg.hierarchy = HierarchySpec::from_cli_spec(llc);
  cfg.threads = threads;
  cfg.sliding = sliding;
  return cfg;
}

TEST(TracedSpkadd, SlidingNeverWorseWhenTablesOverflow) {
  // Dense-enough columns that per-thread tables overflow the modeled share:
  // the heart of Table V cases (b)/(c). 64KB LLC model, 4 threads: 16KB
  // per-thread share.
  const auto inputs = workload(Pattern::ER, 16, 512);
  const auto plain = trace_spkadd(std::span<const Csc>(inputs),
                                  llc_only("LLC:64K:16", 4, false));
  const auto sliding = trace_spkadd(std::span<const Csc>(inputs),
                                    llc_only("LLC:64K:16", 4, true));
  EXPECT_GT(plain.total_accesses(), 0u);
  EXPECT_LT(sliding.total_misses(), plain.total_misses());
}

TEST(TracedSpkadd, NoBenefitWhenTablesFit) {
  // Table V cases (a)/(d): small tables => sliding == plain (same trace).
  const auto inputs = workload(Pattern::ER, 4, 4);
  const auto plain = trace_spkadd(std::span<const Csc>(inputs),
                                  llc_only("LLC:32M:16", 2, false));
  const auto sliding = trace_spkadd(std::span<const Csc>(inputs),
                                    llc_only("LLC:32M:16", 2, true));
  EXPECT_EQ(plain.total_misses(), sliding.total_misses());
}

TEST(TracedSpkadd, PhasesBothCounted) {
  const auto inputs = workload(Pattern::RMAT, 8, 32);
  const auto r = trace_spkadd(std::span<const Csc>(inputs),
                              llc_only("LLC:1M:16", 2, false));
  ASSERT_EQ(r.level_names, std::vector<std::string>{"LLC"});
  EXPECT_GT(r.symbolic[0].accesses, 0u);
  EXPECT_GT(r.numeric[0].accesses, 0u);
  EXPECT_EQ(r.total_accesses(),
            r.symbolic[0].accesses + r.numeric[0].accesses);
}

TEST(TracedSpkadd, EmptyInputsAreHarmless) {
  const TraceConfig cfg = llc_only("LLC:32M:16", 48, false);
  std::vector<Csc> empty;
  const auto r = trace_spkadd(std::span<const Csc>(empty), cfg);
  EXPECT_EQ(r.total_accesses(), 0u);
  std::vector<Csc> zeros{Csc(16, 4), Csc(16, 4)};
  const auto z = trace_spkadd(std::span<const Csc>(zeros), cfg);
  EXPECT_EQ(z.total_misses(), 0u);
  // A config without levels is rejected, not traced.
  EXPECT_THROW((void)trace_spkadd(std::span<const Csc>(zeros), TraceConfig{}),
               std::invalid_argument);
}

TEST(TracedSpkadd, DeterministicTrace) {
  const auto inputs = workload(Pattern::ER, 4, 16);
  const TraceConfig cfg = llc_only("LLC:256K:8", 48, false);
  const auto a = trace_spkadd(std::span<const Csc>(inputs), cfg);
  const auto b = trace_spkadd(std::span<const Csc>(inputs), cfg);
  EXPECT_EQ(a.total_misses(), b.total_misses());
  EXPECT_EQ(a.total_accesses(), b.total_accesses());
}

TEST(TracedSpkadd, MaxTableEntriesOverrideControlsPartitioning) {
  const auto inputs = workload(Pattern::ER, 8, 128);
  TraceConfig cfg = llc_only("LLC:1M:16", 1, true);
  cfg.max_table_entries = 64;  // tiny tables -> many parts -> more streaming
  const auto small = trace_spkadd(std::span<const Csc>(inputs), cfg);
  cfg.max_table_entries = 1 << 20;  // one part
  const auto large = trace_spkadd(std::span<const Csc>(inputs), cfg);
  EXPECT_NE(small.total_accesses(), large.total_accesses());
}

// ------------------------------------------------ multi-level traces

TEST(TracedSpkadd, BothKernelsTraceThroughHierarchy) {
  const auto inputs = workload(Pattern::ER, 8, 32);
  TraceConfig cfg;
  cfg.hierarchy = HierarchySpec::from_cli_spec("L1:4K:4,L2:64K:8,LLC:1M:16");
  cfg.threads = 4;
  for (const bool sliding : {false, true}) {
    cfg.sliding = sliding;
    const auto r = trace_spkadd(std::span<const Csc>(inputs), cfg);
    ASSERT_EQ(r.level_names.size(), 3u) << "sliding=" << sliding;
    EXPECT_EQ(r.level_names[0], "L1");
    EXPECT_GT(r.total_accesses(), 0u) << "sliding=" << sliding;
    EXPECT_GT(r.total_misses(), 0u) << "sliding=" << sliding;
    // Inclusion holds inside the trace too: deeper levels only see the
    // upstream misses.
    for (std::size_t phase = 0; phase < 2; ++phase) {
      const auto& stats = phase == 0 ? r.symbolic : r.numeric;
      for (std::size_t i = 1; i < stats.size(); ++i)
        EXPECT_EQ(stats[i].accesses, stats[i - 1].misses)
            << "sliding=" << sliding;
    }
    // Deterministic replay.
    const auto again = trace_spkadd(std::span<const Csc>(inputs), cfg);
    EXPECT_EQ(r.total_misses(), again.total_misses());
  }
}

TEST(TracedSpkadd, PrivateLevelSwallowedByTheLlcShareIsNotSimulated) {
  // 48 threads share the 8MB LLC: each gets ~170KB, less than the private
  // 1MB L2, so one simulated thread sees L1 then its LLC share. The result
  // names the levels it simulated, which is what bench_table5 prints.
  const auto inputs = workload(Pattern::ER, 4, 16);
  TraceConfig cfg;
  cfg.hierarchy = HierarchySpec::from_cli_spec("L1:32K:8,L2:1M:16,LLC:8M:16");
  cfg.threads = 48;
  const auto r = trace_spkadd(std::span<const Csc>(inputs), cfg);
  EXPECT_EQ(r.level_names, (std::vector<std::string>{"L1", "LLC"}));
  EXPECT_EQ(r.symbolic.size(), 2u);
  EXPECT_EQ(r.numeric.size(), 2u);
}

}  // namespace
