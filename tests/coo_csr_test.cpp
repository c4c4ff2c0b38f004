// COO canonicalization and conversion to CSC.
#include <gtest/gtest.h>

#include "matrix/coo.hpp"
#include "test_helpers.hpp"

namespace {

using spkadd::CooMatrix;
using spkadd::testing::random_matrix;

TEST(Coo, PushValidatesRange) {
  CooMatrix<> m(3, 3);
  EXPECT_THROW(m.push(3, 0, 1.0), std::out_of_range);
  EXPECT_THROW(m.push(0, -1, 1.0), std::out_of_range);
  m.push(2, 2, 1.0);
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(Coo, CompressSumsDuplicatesAndSorts) {
  CooMatrix<> m(4, 2);
  m.push(3, 1, 1.0);
  m.push(0, 0, 2.0);
  m.push(3, 1, 4.0);  // duplicate of the first
  m.push(1, 0, 3.0);
  m.compress();
  ASSERT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.entries()[0].col, 0);
  EXPECT_EQ(m.entries()[0].row, 0);
  EXPECT_DOUBLE_EQ(m.entries()[2].val, 5.0);  // 1 + 4
}

TEST(Coo, ToCscProducesSortedColumns) {
  CooMatrix<> m(5, 3);
  m.push(4, 2, 1.0);
  m.push(0, 0, 2.0);
  m.push(2, 0, 3.0);
  m.compress();
  const auto csc = m.to_csc();
  EXPECT_TRUE(csc.is_sorted());
  EXPECT_EQ(csc.nnz(), 3u);
  EXPECT_DOUBLE_EQ(csc.at(2, 0), 3.0);
}

TEST(Coo, RoundTripThroughCsc) {
  const auto csc = random_matrix(64, 16, 200, 5);
  auto coo = CooMatrix<>::from_csc(csc);
  coo.compress();
  EXPECT_TRUE(csc == coo.to_csc());
}

TEST(Coo, EmptyMatrixConverts) {
  CooMatrix<> m(4, 4);
  const auto csc = m.to_csc();
  EXPECT_EQ(csc.nnz(), 0u);
  EXPECT_EQ(csc.cols(), 4);
}

}  // namespace
