// Symbolic phase (Alg. 6/7): per-column output sizes, sliding partition,
// workspace behaviour.
#include <gtest/gtest.h>

#include "core/symbolic.hpp"
#include "gen/workload.hpp"
#include "test_helpers.hpp"

namespace {

using namespace spkadd;
using namespace spkadd::core;
using spkadd::testing::from_triplets;
using spkadd::testing::random_collection;

using Csc = spkadd::testing::Csc;

/// nnz per column of the sum, counted with `kernel`'s symbolic variant.
std::vector<std::int32_t> count(const std::vector<Csc>& inputs,
                                const Options& opts, ColumnKernel kernel) {
  return symbolic_nnz_per_column(std::span<const Csc>(inputs), opts, kernel);
}

std::vector<std::int32_t> oracle_counts(std::span<const Csc> inputs) {
  const auto oracle = spkadd::testing::dense_sum_oracle(inputs);
  std::vector<std::int32_t> counts(static_cast<std::size_t>(oracle.cols()));
  for (std::int32_t j = 0; j < oracle.cols(); ++j)
    counts[static_cast<std::size_t>(j)] =
        static_cast<std::int32_t>(oracle.col_nnz(j));
  return counts;
}

TEST(Symbolic, MatchesUnionSizesPlain) {
  const auto inputs = random_collection(8, 128, 16, 300, 1);
  const auto got = count(inputs, Options{}, ColumnKernel::Hash);
  EXPECT_EQ(got, oracle_counts(std::span<const Csc>(inputs)));
}

TEST(Symbolic, MatchesUnionSizesSliding) {
  const auto inputs = random_collection(8, 128, 16, 300, 2);
  Options opts;
  opts.max_table_entries = 16;  // force multiple parts per column
  const auto got = count(inputs, opts, ColumnKernel::SlidingHash);
  EXPECT_EQ(got, oracle_counts(std::span<const Csc>(inputs)));
}

TEST(Symbolic, SlidingEqualsPlainForAllCaps) {
  const auto inputs = random_collection(4, 256, 8, 500, 3);
  const auto plain = count(inputs, Options{}, ColumnKernel::Hash);
  for (std::size_t cap : {8u, 32u, 128u, 1u << 20}) {
    Options opts;
    opts.max_table_entries = cap;
    EXPECT_EQ(plain, count(inputs, opts, ColumnKernel::SlidingHash))
        << "cap=" << cap;
  }
}

TEST(Symbolic, SlidingHandlesUnsortedInputs) {
  auto inputs = random_collection(4, 256, 8, 500, 4);
  const auto plain = count(inputs, Options{}, ColumnKernel::Hash);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    spkadd::gen::shuffle_columns(inputs[i], 2000 + i);
  Options opts;
  opts.inputs_sorted = false;
  opts.max_table_entries = 32;
  EXPECT_EQ(plain, count(inputs, opts, ColumnKernel::SlidingHash));
}

TEST(Symbolic, CountsProbesAndTableInits) {
  const auto inputs = random_collection(4, 128, 8, 200, 5);
  OpCounters c;
  Options opts;
  opts.counters = &c;
  (void)count(inputs, opts, ColumnKernel::Hash);
  const std::size_t input_nnz =
      core::detail::total_nnz(std::span<const Csc>(inputs));
  EXPECT_GE(c.hash_probes, input_nnz);  // one probe minimum per entry
  EXPECT_GT(c.table_inits, 0u);
}

TEST(Symbolic, EmptyColumnsAreZero) {
  std::vector<Csc> inputs{from_triplets(8, 4, {{0, 1, 1.0}}),
                          from_triplets(8, 4, {{3, 1, 1.0}, {0, 3, 1.0}})};
  const auto got = count(inputs, Options{}, ColumnKernel::Hash);
  EXPECT_EQ(got, (std::vector<std::int32_t>{0, 2, 0, 1}));
}

TEST(TableEntryCap, DerivesFromLlcAndThreads) {
  Options opts;
  opts.llc_bytes = 1 << 20;
  opts.threads = 4;
  // 1MB / (2 * 4B * 4 threads) = 32K keys for the symbolic phase (the
  // factor 2 covers the <= 0.5 table load factor).
  EXPECT_EQ(core::detail::table_entry_cap(opts, 4), (1u << 20) / 32);
  // Override wins.
  opts.max_table_entries = 123;
  EXPECT_EQ(core::detail::table_entry_cap(opts, 4), 123u);
  // Floor at 8.
  opts.max_table_entries = 1;
  EXPECT_EQ(core::detail::table_entry_cap(opts, 4), 8u);
}

TEST(FilterRange, SplitsByRow) {
  const auto a = from_triplets(10, 1, {{1, 0, 1.0}, {4, 0, 2.0}, {8, 0, 3.0}});
  const auto b = from_triplets(10, 1, {{4, 0, 5.0}});
  std::vector<ColumnView<std::int32_t, double>> views{a.column(0),
                                                      b.column(0)};
  std::vector<std::int32_t> rows;
  std::vector<double> vals;
  std::vector<std::size_t> bounds;
  std::vector<ColumnView<std::int32_t, double>> out;
  core::detail::filter_range(
      std::span<const ColumnView<std::int32_t, double>>(views),
      std::int32_t{2}, std::int32_t{8}, rows, vals, bounds, out);
  ASSERT_EQ(out.size(), 2u);  // both inputs have entries in [2, 8)
  EXPECT_EQ(out[0].nnz(), 1u);
  EXPECT_EQ(out[0].rows[0], 4);
  EXPECT_EQ(out[1].nnz(), 1u);
  EXPECT_DOUBLE_EQ(out[1].vals[0], 5.0);
}

// ------------------------------------------------------------- workspaces
TEST(Workspace, SpaGenerationsAvoidClearing) {
  SpaWorkspace<std::int32_t, double> spa;
  spa.ensure_rows(16);
  spa.new_column();
  spa.add(3, 1.0);
  spa.add(3, 2.0);
  spa.add(7, 5.0);
  EXPECT_EQ(spa.touched.size(), 2u);
  EXPECT_DOUBLE_EQ(spa.values[3], 3.0);
  spa.new_column();  // old entries invisible without clearing
  EXPECT_FALSE(spa.occupied(3));
  spa.add(3, 9.0);
  EXPECT_DOUBLE_EQ(spa.values[3], 9.0);
}

TEST(Workspace, SpaSurvivesGenerationWraparound) {
  SpaWorkspace<std::int32_t, double> spa;
  spa.ensure_rows(4);
  spa.generation = ~0u;  // force the wrap on next new_column
  spa.new_column();
  EXPECT_EQ(spa.generation, 1u);
  spa.add(0, 1.0);
  EXPECT_TRUE(spa.occupied(0));
  EXPECT_FALSE(spa.occupied(1));
}

TEST(Workspace, HashResetOnlyTouchesRequestedEntries) {
  HashWorkspace<std::int32_t, double> ws;
  ws.reset(8);
  EXPECT_EQ(ws.capacity(), 8u);
  ws.keys[0] = 42;
  ws.reset(4);  // shrink: only first 4 slots re-initialized, mask updated
  EXPECT_EQ(ws.capacity(), 4u);
  EXPECT_EQ(ws.keys[0], (HashWorkspace<std::int32_t, double>::kEmpty));
}

TEST(Workspace, HashTableEntriesKeepsLoadFactorUnderHalf) {
  EXPECT_EQ(hash_table_entries(0), 1u);
  EXPECT_EQ(hash_table_entries(1), 2u);
  EXPECT_EQ(hash_table_entries(8), 16u);
  EXPECT_EQ(hash_table_entries(9), 32u);
  // The load-factor guarantee: need / entries <= 0.5 for any need > 0.
  for (std::size_t need : {1u, 3u, 511u, 512u, 513u, 1023u, 1024u, 100000u})
    EXPECT_LE(2 * need, hash_table_entries(need)) << need;
}

}  // namespace
