// Unit tests for src/util: rng, bit ops, prefix sums, cache detection,
// table printing, CLI parsing, timers.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/bit_ops.hpp"
#include "util/cache_info.hpp"
#include "util/cli.hpp"
#include "util/prefix_sum.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"

namespace {

using namespace spkadd::util;

// ---------------------------------------------------------------- rng
TEST(Rng, DeterministicForFixedSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Xoshiro256 root(99);
  Xoshiro256 s0 = root.split(0);
  Xoshiro256 s1 = root.split(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (s0() == s1());
  EXPECT_LT(equal, 4);
  // Splitting is a pure function of the root state and index.
  Xoshiro256 s0_again = root.split(0);
  Xoshiro256 s0_ref = root.split(0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(s0_again(), s0_ref());
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BoundedRespectsBound) {
  Xoshiro256 rng(11);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Xoshiro256 rng(13);
  std::vector<int> hist(8, 0);
  for (int i = 0; i < 80000; ++i) ++hist[rng.bounded(8)];
  for (int h : hist) EXPECT_NEAR(h, 10000, 600);
}

TEST(Rng, SplitMixExpandsSeeds) {
  SplitMix64 sm(0);
  const auto a = sm.next();
  const auto b = sm.next();
  EXPECT_NE(a, b);
  EXPECT_NE(a, 0u);  // even seed 0 yields nonzero state
}

// ---------------------------------------------------------------- bit ops
TEST(BitOps, NextPow2Greater) {
  EXPECT_EQ(next_pow2_greater(0), 1u);
  EXPECT_EQ(next_pow2_greater(1), 2u);
  EXPECT_EQ(next_pow2_greater(2), 4u);
  EXPECT_EQ(next_pow2_greater(3), 4u);
  EXPECT_EQ(next_pow2_greater(4), 8u);  // strictly greater
  EXPECT_EQ(next_pow2_greater(1023), 1024u);
  EXPECT_EQ(next_pow2_greater(1024), 2048u);
}

TEST(BitOps, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(64), 64u);
}

TEST(BitOps, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
}

TEST(BitOps, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(1024), 10u);
}

TEST(BitOps, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 100), 1);
}

// ---------------------------------------------------------------- prefix sum
TEST(PrefixSum, SequentialMatchesDefinition) {
  std::vector<int> in{3, 1, 4, 1, 5};
  std::vector<int> out(in.size() + 1);
  exclusive_scan_seq(std::span<const int>(in), std::span<int>(out));
  EXPECT_EQ(out, (std::vector<int>{0, 3, 4, 8, 9, 14}));
}

TEST(PrefixSum, EmptyInput) {
  std::vector<int> in;
  std::vector<int> out(1);
  exclusive_scan(std::span<const int>(in), std::span<int>(out));
  EXPECT_EQ(out[0], 0);
}

TEST(PrefixSum, ParallelMatchesSequentialOnLargeInput) {
  std::vector<std::int64_t> in(1 << 16);
  spkadd::util::Xoshiro256 rng(3);
  for (auto& v : in) v = static_cast<std::int64_t>(rng.bounded(100));
  std::vector<std::int64_t> a(in.size() + 1), b(in.size() + 1);
  exclusive_scan_seq(std::span<const std::int64_t>(in),
                     std::span<std::int64_t>(a));
  exclusive_scan(std::span<const std::int64_t>(in), std::span<std::int64_t>(b));
  EXPECT_EQ(a, b);
}

TEST(PrefixSum, SingleElement) {
  std::vector<int> in{7};
  std::vector<int> out(2);
  exclusive_scan(std::span<const int>(in), std::span<int>(out));
  EXPECT_EQ(out, (std::vector<int>{0, 7}));
}

TEST(PrefixSum, AllEqualValuesLargeParallelPath) {
  // Above the parallel threshold with identical values: out[i] must be an
  // exact arithmetic ramp regardless of how blocks are carved up. Ask for
  // a team of 4 so the parallel path actually runs even on a 1-core host
  // (exclusive_scan falls back to sequential on a team of one).
  const std::size_t n = (1u << 15) + 13;
  std::vector<std::int64_t> in(n, 5);
  std::vector<std::int64_t> out(n + 1);
  exclusive_scan(std::span<const std::int64_t>(in),
                 std::span<std::int64_t>(out), 4);
  for (std::size_t i = 0; i <= n; i += 997)
    EXPECT_EQ(out[i], static_cast<std::int64_t>(i) * 5) << "at " << i;
  EXPECT_EQ(out[n], static_cast<std::int64_t>(n) * 5);
}

TEST(PrefixSum, Int32MaxTotalDoesNotOverflowInt64) {
  // Offsets near the INT32 nnz ceiling: run the scan in 64-bit as the CSC
  // builders do when nnz approaches INT32_MAX.
  std::vector<std::int64_t> in{INT32_MAX - 2, 1, 1, 5};
  std::vector<std::int64_t> out(in.size() + 1);
  exclusive_scan_seq(std::span<const std::int64_t>(in),
                     std::span<std::int64_t>(out));
  EXPECT_EQ(out[3], static_cast<std::int64_t>(INT32_MAX));
  EXPECT_EQ(out[4], static_cast<std::int64_t>(INT32_MAX) + 5);
}

TEST(PrefixSum, CountsToOffsetsEmptyAndZeroCounts) {
  const auto empty = counts_to_offsets(std::span<const std::int32_t>());
  EXPECT_EQ(empty, (std::vector<std::int32_t>{0}));
  std::vector<std::int32_t> zeros{0, 0, 0};
  const auto offsets = counts_to_offsets(std::span<const std::int32_t>(zeros));
  EXPECT_EQ(offsets, (std::vector<std::int32_t>{0, 0, 0, 0}));
}

TEST(PrefixSum, CountsToOffsets) {
  std::vector<std::int32_t> counts{2, 0, 3};
  const auto offsets =
      counts_to_offsets(std::span<const std::int32_t>(counts));
  EXPECT_EQ(offsets, (std::vector<std::int32_t>{0, 2, 2, 5}));
}

// ---------------------------------------------------------------- cache info
TEST(CacheInfo, DetectionProducesSaneValues) {
  const auto info = detect_machine();
  EXPECT_GE(info.logical_cpus, 1);
  EXPECT_GE(info.l1.bytes, 1u << 10);
  EXPECT_GE(info.llc.bytes, info.l1.bytes);
  EXPECT_TRUE(is_pow2(info.llc.line_bytes));
}

// ---------------------------------------------------------------- printer
TEST(TablePrinter, RendersAlignedMarkdown) {
  TablePrinter t({"Algorithm", "k=4"});
  t.add_row({"Hash", "0.0007"});
  t.add_row({"Sliding Hash", "0.0021"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| Algorithm"), std::string::npos);
  EXPECT_NE(s.find("| Sliding Hash | 0.0021 |"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TablePrinter, PadsAndTruncatesCells) {
  TablePrinter t({"a", "b"});
  t.add_row({"only-one"});
  t.add_row({"x", "y", "extra-dropped"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(os.str().find("extra-dropped"), std::string::npos);
}

TEST(TablePrinter, Formats) {
  EXPECT_EQ(TablePrinter::fmt_seconds(0.08321), "0.0832");
  EXPECT_EQ(TablePrinter::fmt_seconds(12.9322), "12.932");
  EXPECT_EQ(TablePrinter::fmt_ratio(3.204), "3.20x");
  EXPECT_EQ(TablePrinter::fmt_count(1234567), "1,234,567");
  EXPECT_EQ(TablePrinter::fmt_count(5), "5");
}

// ---------------------------------------------------------------- cli
TEST(Cli, ParsesAllForms) {
  CliParser cli("prog");
  const auto* rows = cli.add_int("rows", 10, "rows");
  const auto* scale = cli.add_double("scale", 1.0, "scale");
  const auto* verbose = cli.add_flag("verbose", "talk");
  const auto* name = cli.add_string("name", "def", "name");
  const char* argv[] = {"prog", "--rows", "42", "--scale=2.5", "--verbose",
                        "--name", "hello"};
  ASSERT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(*rows, 42);
  EXPECT_DOUBLE_EQ(*scale, 2.5);
  EXPECT_TRUE(*verbose);
  EXPECT_EQ(*name, "hello");
}

TEST(Cli, DefaultsSurviveWhenUnset) {
  CliParser cli("prog");
  const auto* rows = cli.add_int("rows", 7, "rows");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(*rows, 7);
}

TEST(Cli, RejectsUnknownFlagAndBadValue) {
  CliParser cli("prog");
  cli.add_int("rows", 1, "rows");
  const char* bad1[] = {"prog", "--nope", "3"};
  EXPECT_FALSE(cli.parse(3, bad1));
  CliParser cli2("prog");
  cli2.add_int("rows", 1, "rows");
  const char* bad2[] = {"prog", "--rows", "abc"};
  EXPECT_FALSE(cli2.parse(3, bad2));
  CliParser cli3("prog");
  cli3.add_int("rows", 1, "rows");
  const char* bad3[] = {"prog", "--rows"};
  EXPECT_FALSE(cli3.parse(2, bad3));
}

TEST(Cli, StrictIntRejectsTrailingGarbage) {
  // std::stoll would accept "12abc" as 12; the strict parser must not.
  CliParser cli("prog");
  cli.add_int("rows", 1, "rows");
  const char* bad[] = {"prog", "--rows", "12abc"};
  EXPECT_FALSE(cli.parse(3, bad));
  CliParser cli2("prog");
  cli2.add_double("scale", 1.0, "scale");
  const char* bad2[] = {"prog", "--scale", "1.5x"};
  EXPECT_FALSE(cli2.parse(3, bad2));
}

TEST(Cli, IntListParsesSweepAxes) {
  CliParser cli("bench_service");
  const auto* shards = cli.add_int_list("shards", "4", "shard sweep");
  const auto* producers = cli.add_int_list("producers", "1,2", "producers");
  const char* argv[] = {"prog", "--shards", "1,2,8", "--negatives=-3,-1"};
  const auto* negatives = cli.add_int_list("negatives", "0", "negatives");
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(*shards, (std::vector<std::int64_t>{1, 2, 8}));
  EXPECT_EQ(*producers, (std::vector<std::int64_t>{1, 2}));  // default
  EXPECT_EQ(*negatives, (std::vector<std::int64_t>{-3, -1}));
}

TEST(Cli, IntListRejectsMalformedLists) {
  for (const char* bad : {"1,,2", "1,2,", ",1", "", "1,a", "2;3"}) {
    CliParser cli("prog");
    cli.add_int_list("shards", "1", "shards");
    const char* argv[] = {"prog", "--shards", bad};
    EXPECT_FALSE(cli.parse(3, argv)) << "accepted '" << bad << "'";
  }
}

TEST(Cli, IntListBadDefaultThrowsAtRegistration) {
  CliParser cli("prog");
  EXPECT_THROW(cli.add_int_list("shards", "1,x", "shards"),
               std::invalid_argument);
  EXPECT_THROW(cli.add_int_list("shards", "", "shards"),
               std::invalid_argument);
}

// ------------------------------------------------------------ cache-spec
TEST(CacheSpec, ParsesLevelsWithSuffixes) {
  const auto levels = parse_cache_spec("L1:32K:8,L2:1M:16,LLC:8M:16");
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], (CacheLevelSpec{"L1", 32u << 10, 8}));
  EXPECT_EQ(levels[1], (CacheLevelSpec{"L2", 1u << 20, 16}));
  EXPECT_EQ(levels[2], (CacheLevelSpec{"LLC", 8u << 20, 16}));
  const auto raw = parse_cache_spec("LLC:12345:4");
  EXPECT_EQ(raw[0].bytes, 12345u);
  const auto giga = parse_cache_spec("HBM:2G:32");
  EXPECT_EQ(giga[0].bytes, 2ull << 30);
}

TEST(CacheSpec, FormatRoundTrips) {
  for (const char* spec :
       {"L1:32K:8,L2:1M:16,LLC:8M:16", "LLC:8M:16", "L1:1000:2,L2:2G:8"}) {
    EXPECT_EQ(format_cache_spec(parse_cache_spec(spec)), spec) << spec;
  }
  // Non-suffix-exact sizes render as raw bytes and still round-trip.
  const std::vector<CacheLevelSpec> odd{{"LLC", (8u << 20) + 1, 16}};
  EXPECT_EQ(parse_cache_spec(format_cache_spec(odd)), odd);
}

TEST(CacheSpec, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "LLC", "LLC:8M", "LLC:8M:16:9", ":8M:16", "LLC::16", "LLC:8M:",
        "LLC:0:16", "LLC:8M:0", "LLC:8X:16", "LLC:8M:16,", ",LLC:8M:16",
        "LLC:8M:16,,L1:1K:2", "LLC:-8:16", "LLC:8M:16 ", "LLC:8 M:16",
        "LLC:8MM:16", "LLC:8M:1048577"}) {
    EXPECT_THROW(parse_cache_spec(bad), std::invalid_argument)
        << "accepted '" << bad << "'";
  }
}

TEST(CacheInfo, CachedMachineIsStableAcrossCalls) {
  const MachineInfo& a = cached_machine();
  const MachineInfo& b = cached_machine();
  EXPECT_EQ(&a, &b);  // one sysfs probe per process, same object back
  EXPECT_GT(a.llc.bytes, 0u);
}

TEST(Cli, UsageMentionsEveryFlag) {
  CliParser cli("prog", "test program");
  cli.add_int("alpha", 1, "first");
  cli.add_flag("beta", "second");
  const std::string u = cli.usage();
  EXPECT_NE(u.find("--alpha"), std::string::npos);
  EXPECT_NE(u.find("--beta"), std::string::npos);
  EXPECT_NE(u.find("test program"), std::string::npos);
}

// ---------------------------------------------------------------- timer
TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.millis(), 15.0);
  t.reset();
  EXPECT_LT(t.millis(), 15.0);
}

TEST(PhaseTimerTest, AccumulatesPhases) {
  PhaseTimer pt;
  pt.add("symbolic", 0.5);
  pt.add("symbolic", 0.25);
  pt.add("compute", 1.0);
  EXPECT_DOUBLE_EQ(pt.get("symbolic"), 0.75);
  EXPECT_DOUBLE_EQ(pt.get("compute"), 1.0);
  EXPECT_DOUBLE_EQ(pt.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(pt.total(), 1.75);
  const int x = pt.time("lambda", [] { return 5; });
  EXPECT_EQ(x, 5);
  EXPECT_GE(pt.get("lambda"), 0.0);
  pt.clear();
  EXPECT_DOUBLE_EQ(pt.total(), 0.0);
}

}  // namespace
