// Local SpGEMM: hash and heap accumulators vs a dense oracle.
#include <gtest/gtest.h>

#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "matrix/dense.hpp"
#include "matrix/validate.hpp"
#include "spgemm/local_spgemm.hpp"
#include "test_helpers.hpp"

namespace {

using namespace spkadd;
using namespace spkadd::spgemm;
using spkadd::testing::from_triplets;
using spkadd::testing::random_matrix;

using Csc = spkadd::testing::Csc;

/// Dense multiply oracle keeping the exact structural pattern Gustavson
/// produces (union over b-entries of A-column patterns).
Csc dense_multiply(const Csc& a, const Csc& b) {
  DenseMatrix<double> acc(a.rows(), b.cols());
  std::vector<char> pattern(static_cast<std::size_t>(a.rows()) *
                                static_cast<std::size_t>(b.cols()),
                            0);
  for (std::int32_t j = 0; j < b.cols(); ++j) {
    const auto bcol = b.column(j);
    for (std::size_t t = 0; t < bcol.nnz(); ++t) {
      const auto acol = a.column(bcol.rows[t]);
      for (std::size_t i = 0; i < acol.nnz(); ++i) {
        acc(acol.rows[i], j) += acol.vals[i] * bcol.vals[t];
        pattern[static_cast<std::size_t>(j) *
                    static_cast<std::size_t>(a.rows()) +
                static_cast<std::size_t>(acol.rows[i])] = 1;
      }
    }
  }
  return acc.to_csc<std::int32_t>([&](std::int64_t r, std::int64_t c) {
    return pattern[static_cast<std::size_t>(c) *
                       static_cast<std::size_t>(a.rows()) +
                   static_cast<std::size_t>(r)] != 0;
  });
}

TEST(Spgemm, TinyHandComputedProduct) {
  // [1 0; 2 3] * [4 0; 0 5] = [4 0; 8 15]
  const auto a = from_triplets(2, 2, {{0, 0, 1.0}, {1, 0, 2.0}, {1, 1, 3.0}});
  const auto b = from_triplets(2, 2, {{0, 0, 4.0}, {1, 1, 5.0}});
  const auto c = multiply(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 8.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 15.0);
  EXPECT_EQ(c.nnz(), 3u);
}

TEST(Spgemm, HashMatchesDenseOracle) {
  const auto a = random_matrix(64, 48, 400, 1);
  const auto b = random_matrix(48, 32, 300, 2);
  const auto c = multiply(a, b);
  EXPECT_TRUE(validate(c).valid);
  EXPECT_TRUE(approx_equal(dense_multiply(a, b), c, 1e-9));
}

TEST(Spgemm, HeapMatchesHash) {
  const auto a = random_matrix(64, 48, 400, 3);
  const auto b = random_matrix(48, 32, 300, 4);
  SpgemmOptions heap_opts;
  heap_opts.accumulator = Accumulator::Heap;
  EXPECT_TRUE(approx_equal(multiply(a, b), multiply(a, b, heap_opts), 1e-9));
}

TEST(Spgemm, UnsortedOutputHasSameEntries) {
  const auto a = random_matrix(64, 32, 300, 5);
  const auto b = random_matrix(32, 16, 200, 6);
  SpgemmOptions opts;
  opts.sorted_output = false;
  auto c = multiply(a, b, opts);
  EXPECT_TRUE(validate(c, /*require_sorted=*/false).valid);
  c.sort_columns();
  EXPECT_TRUE(approx_equal(multiply(a, b), c, 1e-9));
}

TEST(Spgemm, IdentityIsNeutral) {
  const auto a = random_matrix(32, 32, 200, 7);
  CooMatrix<std::int32_t, double> id(32, 32);
  for (std::int32_t i = 0; i < 32; ++i) id.push(i, i, 1.0);
  id.compress();
  const auto eye = id.to_csc();
  EXPECT_TRUE(approx_equal(a, multiply(a, eye), 1e-12));
  EXPECT_TRUE(approx_equal(a, multiply(eye, a), 1e-12));
}

TEST(Spgemm, DimensionMismatchThrows) {
  const auto a = random_matrix(8, 4, 10, 8);
  const auto b = random_matrix(5, 8, 10, 9);
  EXPECT_THROW(multiply(a, b), std::invalid_argument);
}

TEST(Spgemm, EmptyOperandsGiveEmptyProduct) {
  const Csc a(8, 4);
  const auto b = random_matrix(4, 8, 10, 10);
  EXPECT_EQ(multiply(a, b).nnz(), 0u);
  const Csc b2(8, 6);
  const auto a2 = random_matrix(4, 8, 10, 11);
  EXPECT_EQ(multiply(a2, b2).nnz(), 0u);
}

TEST(Spgemm, HeapRequiresSortedA) {
  auto a = random_matrix(32, 16, 100, 12);
  const auto b = random_matrix(16, 8, 50, 13);
  spkadd::gen::shuffle_columns(a, 44);
  SpgemmOptions opts;
  opts.accumulator = Accumulator::Heap;
  EXPECT_THROW(multiply(a, b, opts), std::invalid_argument);
}

TEST(Spgemm, ThreadCountsAgree) {
  const auto a = random_matrix(64, 32, 400, 14);
  const auto b = random_matrix(32, 32, 300, 15);
  const auto ref = multiply(a, b);
  for (int t : {1, 2, 4}) {
    SpgemmOptions opts;
    opts.threads = t;
    EXPECT_TRUE(approx_equal(ref, multiply(a, b, opts), 1e-12));
  }
}

TEST(Spgemm, MultiplyIntoMatchesMultiplyBitIdentically) {
  // multiply_into on the thread's reused Runtime is the streaming SUMMA
  // producer; it must be the same computation as the one-shot API, bit for
  // bit, no matter how stale or grown the scratch pool is.
  const auto a = random_matrix(72, 56, 600, 40);
  const auto b = random_matrix(56, 64, 500, 41);
  for (const auto acc : {Accumulator::Hash, Accumulator::Heap}) {
    for (const bool sorted : {true, false}) {
      if (acc == Accumulator::Heap && !sorted) continue;
      SpgemmOptions opts;
      opts.accumulator = acc;
      opts.sorted_output = sorted;
      const auto one_shot = multiply(a, b, opts);
      Csc emitted;
      multiply_into(a, b, opts, emitted);  // one pool across configs
      EXPECT_TRUE(emitted == one_shot)
          << (acc == Accumulator::Hash ? "hash" : "heap")
          << " sorted=" << sorted;
    }
  }
}

TEST(Spgemm, ProducesSpkaddReadyIntermediates) {
  // The paper's pipeline: k products A_i * B_i reduced by SpKAdd.
  std::vector<Csc> products;
  for (int i = 0; i < 4; ++i) {
    const auto a = random_matrix(48, 24, 200, 20 + i);
    const auto b = random_matrix(24, 16, 150, 30 + i);
    products.push_back(multiply(a, b));
  }
  const auto sum = spkadd::core::spkadd(products);
  EXPECT_TRUE(approx_equal(
      spkadd::testing::dense_sum_oracle(std::span<const Csc>(products)), sum));
}

}  // namespace
