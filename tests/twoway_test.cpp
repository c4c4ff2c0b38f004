// 2-way merge kernels, pairwise add2, and the two pairwise families
// (incremental and tree folds of add2 and of the MKL-substitute reference
// adder) run through core::spkadd.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "matrix/validate.hpp"
#include "test_helpers.hpp"
#include "util/thread_control.hpp"

namespace {

using namespace spkadd;
using namespace spkadd::core;
using spkadd::testing::dense_sum_oracle;
using spkadd::testing::from_triplets;
using spkadd::testing::random_collection;

using Csc = spkadd::testing::Csc;

TEST(Merge2, CountAndAddAgree) {
  const auto a = from_triplets(8, 1, {{1, 0, 3.0}, {3, 0, 2.0}, {6, 0, 1.0}});
  const auto b = from_triplets(8, 1, {{0, 0, 2.0}, {3, 0, 1.0}, {5, 0, 3.0}});
  const auto ca = a.column(0);
  const auto cb = b.column(0);
  EXPECT_EQ(merge2_count(ca, cb), 5u);  // overlap at row 3
  std::vector<std::int32_t> rows(6);
  std::vector<double> vals(6);
  const auto n = merge2_add(ca, cb, rows.data(), vals.data());
  ASSERT_EQ(n, 5u);
  EXPECT_EQ(rows[0], 0);
  EXPECT_EQ(rows[2], 3);
  EXPECT_DOUBLE_EQ(vals[2], 3.0);  // 2 + 1
  EXPECT_EQ(rows[4], 6);
}

TEST(Merge2, EmptySides) {
  const auto a = from_triplets(4, 1, {{1, 0, 1.0}});
  const Csc empty(4, 1);
  EXPECT_EQ(merge2_count(a.column(0), empty.column(0)), 1u);
  EXPECT_EQ(merge2_count(empty.column(0), empty.column(0)), 0u);
  std::vector<std::int32_t> rows(2);
  std::vector<double> vals(2);
  EXPECT_EQ(merge2_add(empty.column(0), a.column(0), rows.data(), vals.data()),
            1u);
  EXPECT_EQ(rows[0], 1);
}

TEST(Merge2, CountsOperations) {
  const auto a = from_triplets(8, 1, {{1, 0, 1.0}, {3, 0, 1.0}});
  const auto b = from_triplets(8, 1, {{2, 0, 1.0}});
  OpCounters c;
  const std::size_t out_nnz = merge2_count(a.column(0), b.column(0), &c);
  EXPECT_EQ(out_nnz, 3u);
  EXPECT_EQ(c.merge_ops, 3u);
}

TEST(Add2, MatchesDenseOracle) {
  const auto inputs = random_collection(2, 64, 16, 200, 11);
  const auto got = add2(inputs[0], inputs[1]);
  EXPECT_TRUE(validate(got).valid);
  EXPECT_TRUE(approx_equal(
      dense_sum_oracle(std::span<const Csc>(inputs)), got));
}

TEST(Add2, ShapeMismatchThrows) {
  const auto a = from_triplets(4, 2, {{0, 0, 1.0}});
  const auto b = from_triplets(4, 3, {{0, 0, 1.0}});
  EXPECT_THROW(add2(a, b), std::invalid_argument);
}

TEST(Add2, FullOverlapHalvesOutput) {
  const auto a = from_triplets(8, 1, {{1, 0, 1.0}, {5, 0, 2.0}});
  const auto out = add2(a, a);
  EXPECT_EQ(out.nnz(), 2u);
  EXPECT_DOUBLE_EQ(out.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(out.at(5, 0), 4.0);
}

/// Sum `inputs` with one method through the public entry point.
template <class ValueT>
CscMatrix<std::int32_t, ValueT> sum_with(
    std::span<const CscMatrix<std::int32_t, ValueT>> inputs, Method m,
    Options opts = {}) {
  opts.method = m;
  return core::spkadd(inputs, opts);
}

TEST(TwoWayIncremental, MatchesDenseOracle) {
  const auto inputs = random_collection(5, 64, 8, 100, 3);
  const std::span<const Csc> in(inputs);
  EXPECT_TRUE(approx_equal(dense_sum_oracle(in),
                           sum_with(in, Method::TwoWayIncremental)));
}

TEST(TwoWayTree, MatchesDenseOracleOddAndEvenK) {
  for (int k : {1, 2, 3, 4, 7, 8}) {
    const auto inputs = random_collection(k, 32, 8, 64, 100 + k);
    const std::span<const Csc> in(inputs);
    EXPECT_TRUE(
        approx_equal(dense_sum_oracle(in), sum_with(in, Method::TwoWayTree)))
        << "k=" << k;
  }
}

constexpr Method kPairwise[] = {Method::TwoWayIncremental, Method::TwoWayTree,
                                Method::ReferenceIncremental,
                                Method::ReferenceTree};

TEST(TwoWay, RejectsUnsortedInputs) {
  const std::vector<Csc> unsorted{
      Csc(4, 1, {0, 2}, {2, 0}, {1.0, 1.0}),  // unsorted column
      from_triplets(4, 1, {{1, 0, 1.0}}),
  };
  const auto sorted = random_collection(3, 32, 4, 40, 7);
  for (const Method m : kPairwise) {
    EXPECT_THROW((void)sum_with(std::span<const Csc>(unsorted), m),
                 std::invalid_argument)
        << method_name(m);
    Options undeclared;
    undeclared.inputs_sorted = false;
    EXPECT_THROW(
        (void)sum_with(std::span<const Csc>(sorted), m, undeclared),
        std::invalid_argument)
        << method_name(m) << " inputs_sorted=false";
  }
}

TEST(ReferenceAdd, MatchesTwoWayTree) {
  const auto inputs = random_collection(6, 64, 8, 120, 8);
  const std::span<const Csc> in(inputs);
  const auto tree = sum_with(in, Method::TwoWayTree);
  EXPECT_TRUE(approx_equal(tree, sum_with(in, Method::ReferenceIncremental)));
  EXPECT_TRUE(approx_equal(tree, sum_with(in, Method::ReferenceTree)));
}

TEST(ReferenceAdd, SingleInputPassesThrough) {
  const auto inputs = random_collection(1, 16, 4, 20, 2);
  EXPECT_TRUE(sum_with(std::span<const Csc>(inputs), Method::ReferenceTree) ==
              inputs[0]);
}

// Float sums expose the association order. Both left folds add every row
// strictly left to right over the inputs, as the heap merge does; both
// trees pair the same neighbours at every level. So each family returns
// the same bits as its counterpart, at every k and team size.
TEST(PairwiseFoldOrder, EachFamilyReturnsItsCounterpartsBits) {
  using FloatCsc = CscMatrix<std::int32_t, float>;
  const int nproc =
      static_cast<int>(std::max<std::size_t>(1, util::online_cpu_count()));
  std::size_t tree_differs = 0;
  for (const gen::Pattern pattern : {gen::Pattern::ER, gen::Pattern::RMAT}) {
    gen::WorkloadSpec spec;
    spec.pattern = pattern;
    spec.rows = 1 << 10;
    spec.cols = 1 << 6;
    spec.avg_nnz_per_col = 16;
    spec.k = 16;  // a power of two; each case takes a prefix
    spec.seed = 2501;
    std::vector<FloatCsc> all;
    for (const Csc& m : gen::make_workload(spec)) {
      const auto cp = m.col_ptr();
      const auto rows = m.row_idx();
      const auto vals = m.values();
      all.emplace_back(m.rows(), m.cols(),
                       std::vector<std::int32_t>(cp.begin(), cp.end()),
                       std::vector<std::int32_t>(rows.begin(), rows.end()),
                       std::vector<float>(vals.begin(), vals.end()));
    }
    for (const std::size_t k : {2, 3, 5, 8, 13}) {
      const std::span<const FloatCsc> in(all.data(), k);
      for (const int t : {1, nproc}) {
        const std::string where = spec.describe() + " k=" +
                                  std::to_string(k) + " T=" +
                                  std::to_string(t);
        Options opts;
        opts.threads = t;
        const FloatCsc heap = sum_with(in, Method::Heap, opts);
        EXPECT_TRUE(sum_with(in, Method::TwoWayIncremental, opts) == heap)
            << where;
        EXPECT_TRUE(sum_with(in, Method::ReferenceIncremental, opts) == heap)
            << where;
        const FloatCsc tree = sum_with(in, Method::TwoWayTree, opts);
        EXPECT_TRUE(sum_with(in, Method::ReferenceTree, opts) == tree)
            << where;
        tree_differs += tree == heap ? 0 : 1;
      }
    }
  }
  // The inputs must tell the two orders apart, or the checks above could
  // not catch a fold that re-associates.
  EXPECT_GT(tree_differs, 0u);
}

TEST(TwoWayIncremental, WorkGrowsQuadraticallyInK) {
  // Table I: 2-way incremental does O(k^2 nd) merge work on disjoint
  // (ER-like) inputs, vs O(k nd lg k) for the tree. Verify the k^2 trend by
  // counting merge operations at two values of k.
  auto count_ops = [](int k) {
    const auto inputs = random_collection(k, 1 << 12, 8, 256, 500);
    OpCounters c;
    Options opts;
    opts.counters = &c;
    (void)sum_with(std::span<const Csc>(inputs), Method::TwoWayIncremental,
                   opts);
    return c.merge_ops;
  };
  const auto w4 = count_ops(4);
  const auto w16 = count_ops(16);
  // k grows 4x => quadratic work grows ~16x (allowing generous slack for
  // overlap dedup and constant terms).
  const double growth = static_cast<double>(w16) / static_cast<double>(w4);
  EXPECT_GT(growth, 8.0);
  EXPECT_LT(growth, 32.0);
}

TEST(TwoWayTree, WorkGrowsAsKLogK) {
  auto count_ops = [](int k) {
    const auto inputs = random_collection(k, 1 << 12, 8, 256, 501);
    OpCounters c;
    Options opts;
    opts.counters = &c;
    (void)sum_with(std::span<const Csc>(inputs), Method::TwoWayTree, opts);
    return c.merge_ops;
  };
  const auto w4 = count_ops(4);    // ~ 4 * 2 levels
  const auto w16 = count_ops(16);  // ~ 16 * 4 levels => 8x the ops of k=4
  const double growth = static_cast<double>(w16) / static_cast<double>(w4);
  EXPECT_GT(growth, 5.0);
  EXPECT_LT(growth, 12.0);
}

}  // namespace
