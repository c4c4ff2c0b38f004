// Unified spkadd() dispatch, the Auto policy and Options plumbing.
#include <gtest/gtest.h>

#include <set>

#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "matrix/validate.hpp"
#include "test_helpers.hpp"

namespace {

using namespace spkadd;
using namespace spkadd::core;
using spkadd::testing::dense_sum_oracle;
using spkadd::testing::random_collection;

using Csc = spkadd::testing::Csc;
using Coo = spkadd::testing::Coo;

TEST(Dispatch, EveryMethodProducesTheSameSum) {
  const auto inputs = random_collection(8, 128, 16, 300, 1);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  for (auto m : {Method::TwoWayIncremental, Method::TwoWayTree, Method::Heap,
                 Method::Hash, Method::SlidingHash, Method::DenseAcc,
                 Method::ReferenceIncremental, Method::ReferenceTree,
                 Method::Auto}) {
    Options opts;
    opts.method = m;
    EXPECT_TRUE(approx_equal(oracle, core::spkadd(inputs, opts)))
        << method_name(m);
  }
}

TEST(Dispatch, SingleInputIsCopiedThrough) {
  const auto inputs = random_collection(1, 32, 4, 40, 3);
  const auto out = core::spkadd(inputs);
  EXPECT_TRUE(out == inputs[0]);
}

TEST(Dispatch, SingleUnsortedInputIsCanonicalizedOnRequest) {
  auto inputs = random_collection(1, 64, 8, 120, 4);
  const auto sorted_original = inputs[0];
  spkadd::gen::shuffle_columns(inputs[0], 5);
  Options opts;
  opts.inputs_sorted = false;
  opts.sorted_output = true;
  EXPECT_TRUE(core::spkadd(inputs, opts) == sorted_original);
}

TEST(Dispatch, EmptyCollectionThrows) {
  std::vector<Csc> empty;
  EXPECT_THROW(core::spkadd(empty), std::invalid_argument);
}

/// The kernels plan_hybrid assigns to `inputs` under `opts`.
std::vector<ColumnKernel> planned_kernels(const std::vector<Csc>& inputs,
                                          const Options& opts) {
  std::vector<const Csc*> ptrs;
  detail::borrow_all(std::span<const Csc>(inputs), ptrs);
  std::vector<std::uint64_t> costs;
  detail::column_input_nnz(MatrixPtrs<std::int32_t, double>(ptrs), opts,
                           costs);
  ColumnPlan<std::int32_t> plan;
  plan_hybrid<std::int32_t, double>(costs, inputs[0].rows(), inputs.size(),
                                    opts, plan);
  return plan.kernels;
}

TEST(AutoPolicy, ResolvesToThePerChunkPlanner) {
  const auto inputs = random_collection(4, 256, 16, 200, 7);
  Options opts;
  opts.llc_bytes = 32u << 20;  // plenty of cache
  opts.threads = 1;
  EXPECT_EQ(auto_select(std::span<const Csc>(inputs), opts), Method::Auto);
  EXPECT_FALSE(method_kernel(Method::Auto).has_value());
  OpCounters counters;
  opts.counters = &counters;
  (void)core::spkadd(inputs, opts);
  EXPECT_GT(counters.chunks_total(), 0u);
  EXPECT_EQ(counters.chunks_total(), planned_kernels(inputs, opts).size());
}

TEST(AutoPolicy, IsTheOnlyNameOfThePlanner) {
  // "spa" named the sparse accumulator DenseAcc replaced and "hybrid" a
  // second name of the planner; neither parses any more.
  EXPECT_THROW((void)method_from_name("spa"), std::invalid_argument);
  EXPECT_THROW((void)method_from_name("hybrid"), std::invalid_argument);
  Options unsorted;
  unsorted.inputs_sorted = false;
  EXPECT_EQ(auto_select(3, Options{}), Method::Auto);
  EXPECT_EQ(auto_select(2, unsorted), Method::Auto);
}

TEST(AutoPolicy, CacheOverflowPicksSlidingHash) {
  const auto inputs = random_collection(8, 1 << 12, 2, 3000, 8);
  Options opts;
  opts.llc_bytes = 1 << 10;  // 1KB "LLC": tables cannot fit
  opts.threads = 4;
  OpCounters counters;
  opts.counters = &counters;
  const Csc out = core::spkadd(inputs, opts);
  EXPECT_GT(counters.chunks_sliding, 0u);
  EXPECT_EQ(counters.chunks_sliding, counters.chunks_total())
      << counters.chunk_mix();
  Options hash_opts;
  hash_opts.method = Method::Hash;
  EXPECT_TRUE(out == core::spkadd(inputs, hash_opts));
}

TEST(AutoPolicy, PairOfSortedInputsUsesTree) {
  const auto inputs = random_collection(2, 64, 8, 100, 9);
  EXPECT_EQ(auto_select(std::span<const Csc>(inputs), Options{}),
            Method::TwoWayTree);
  // Unsorted pairs cannot take the pairwise corner.
  Options unsorted;
  unsorted.inputs_sorted = false;
  EXPECT_EQ(auto_select(std::span<const Csc>(inputs), unsorted),
            Method::Auto);
}

TEST(AutoPolicy, DeterministicLlcBoundaryRegression) {
  // 4 addends, each contributing 10 distinct rows to column 0, so the
  // heaviest summed column has exactly 40 entries. With entry bytes
  // b = sizeof(int32) + sizeof(double) = 12 and threads pinned to 3, the
  // numeric-phase tables need 12 * 3 * 40 = 1440 bytes. The sliding rule
  // is "tables overflow LLC", so an exactly-fitting budget stays off
  // sliding hash and one byte less tips column 0's chunk onto it —
  // independent of the host's real LLC because opts.llc_bytes is pinned.
  // At that budget the three 64-row dense arrays (9 bytes per row each)
  // do not fit, so the dense rule cannot claim the chunk first.
  std::vector<Csc> inputs;
  for (int i = 0; i < 4; ++i) {
    Coo coo(64, 2);
    for (int r = 0; r < 10; ++r)
      coo.push(static_cast<std::int32_t>(i * 10 + r), 0, 1.0);
    coo.compress();
    inputs.push_back(coo.to_csc());
  }
  constexpr std::size_t kTableBytes =
      (sizeof(std::int32_t) + sizeof(double)) * 3 * 40;
  Options opts;
  opts.threads = 3;
  opts.llc_bytes = kTableBytes;
  const auto fits = planned_kernels(inputs, opts);
  ASSERT_FALSE(fits.empty());
  EXPECT_NE(fits.front(), ColumnKernel::SlidingHash);
  EXPECT_NE(fits.front(), ColumnKernel::DenseAcc);
  opts.llc_bytes = kTableBytes - 1;
  EXPECT_EQ(planned_kernels(inputs, opts).front(),
            ColumnKernel::SlidingHash);
}

namespace {
constexpr Method kAllMethods[] = {
    Method::TwoWayIncremental,    Method::TwoWayTree,    Method::Heap,
    Method::Hash,                 Method::SlidingHash,   Method::DenseAcc,
    Method::ReferenceIncremental, Method::ReferenceTree, Method::Auto};
}  // namespace

TEST(MethodName, AllNamesDistinct) {
  std::set<std::string> names;
  for (auto m : kAllMethods) names.insert(method_name(m));
  EXPECT_EQ(names.size(), 9u);
}

TEST(MethodName, FromNameRoundTripsEveryMethod) {
  for (auto m : kAllMethods) EXPECT_EQ(method_from_name(method_name(m)), m);
}

TEST(MethodName, FromNameAcceptsCliSpellings) {
  EXPECT_EQ(method_from_name("hash"), Method::Hash);
  EXPECT_EQ(method_from_name("sliding-hash"), Method::SlidingHash);
  EXPECT_EQ(method_from_name("SLIDING_HASH"), Method::SlidingHash);
  EXPECT_EQ(method_from_name("2way-tree"), Method::TwoWayTree);
  EXPECT_EQ(method_from_name("ref-tree"), Method::ReferenceTree);
  EXPECT_EQ(method_from_name("AUTO"), Method::Auto);
  EXPECT_EQ(method_from_name("dense"), Method::DenseAcc);
  EXPECT_EQ(method_from_name("DenseAcc"), Method::DenseAcc);
  EXPECT_THROW((void)method_from_name("hashish"), std::invalid_argument);
  EXPECT_THROW((void)method_from_name(""), std::invalid_argument);
}

TEST(Dispatch, VectorOverloadMatchesSpanOverload) {
  const auto inputs = random_collection(4, 64, 8, 100, 11);
  EXPECT_TRUE(core::spkadd(inputs) ==
              core::spkadd(std::span<const Csc>(inputs), Options{}));
}

}  // namespace
