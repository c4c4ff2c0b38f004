// The binary matrix container.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "io/binary_io.hpp"
#include "test_helpers.hpp"

namespace {

using namespace spkadd;
using spkadd::testing::random_matrix;

using Csc = spkadd::testing::Csc;

// ------------------------------------------------------------- binary io
TEST(BinaryIo, RoundTripsExactly) {
  const auto m = random_matrix(256, 32, 1000, 6);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(buf, m);
  EXPECT_TRUE(io::read_binary(buf) == m);
}

TEST(BinaryIo, RoundTripsEmptyMatrix) {
  const Csc m(10, 5);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(buf, m);
  const auto back = io::read_binary(buf);
  EXPECT_EQ(back.rows(), 10);
  EXPECT_EQ(back.cols(), 5);
  EXPECT_EQ(back.nnz(), 0u);
}

TEST(BinaryIo, RejectsCorruptedStreams) {
  const auto m = random_matrix(32, 4, 60, 8);
  std::stringstream good(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(good, m);
  const std::string bytes = good.str();

  {  // bad magic
    std::string s = bytes;
    s[0] = 'X';
    std::istringstream in(s);
    EXPECT_THROW(io::read_binary(in), std::runtime_error);
  }
  {  // truncated halfway
    std::istringstream in(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(io::read_binary(in), std::runtime_error);
  }
  {  // corrupt a row index beyond the row count
    std::string s = bytes;
    // Header is 4 + 4 + 4 + 4 + 8*3 = 40 bytes, then col_ptr (5 ints).
    const std::size_t row_idx_offset = 40 + 5 * sizeof(std::int32_t);
    std::int32_t huge = 1 << 20;
    std::memcpy(s.data() + row_idx_offset, &huge, sizeof(huge));
    std::istringstream in(s);
    EXPECT_THROW(io::read_binary(in), std::runtime_error);
  }
}

}  // namespace
