// Radix sort used by the hash kernels' emission paths.
#include <gtest/gtest.h>

#include <algorithm>

#include "util/radix_sort.hpp"
#include "util/rng.hpp"

namespace {

using namespace spkadd::util;

template <class K>
void check_pairs_sorted(std::size_t n, std::uint64_t seed, K key_bound) {
  Xoshiro256 rng(seed);
  std::vector<K> keys(n);
  std::vector<double> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] =
        static_cast<K>(rng.bounded(static_cast<std::uint64_t>(key_bound)));
    vals[i] = static_cast<double>(keys[i]) * 0.5;  // value tied to key
  }
  auto expected_keys = keys;
  std::sort(expected_keys.begin(), expected_keys.end());

  RadixScratch<K, double> scratch;
  radix_sort_pairs(keys.data(), vals.data(), n, scratch);
  EXPECT_EQ(keys, expected_keys);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_DOUBLE_EQ(vals[i], static_cast<double>(keys[i]) * 0.5)
        << "value did not follow its key at " << i;
}

TEST(RadixSortPairs, SmallFallsBackToInsertion) {
  check_pairs_sorted<std::int32_t>(5, 1, 100);
  check_pairs_sorted<std::int32_t>(50, 2, 1 << 20);
}

TEST(RadixSortPairs, LargeRandom32) {
  check_pairs_sorted<std::int32_t>(10000, 3, INT32_MAX);
}

TEST(RadixSortPairs, LargeRandom64) {
  check_pairs_sorted<std::int64_t>(5000, 4, INT64_MAX / 2);
}

TEST(RadixSortPairs, NarrowKeyRangeSkipsPasses) {
  // All keys share the top three bytes: only one radix pass runs.
  check_pairs_sorted<std::int32_t>(4096, 5, 256);
}

TEST(RadixSortPairs, AlreadySortedAndReversed) {
  std::vector<std::int32_t> keys(1000);
  std::vector<double> vals(1000);
  for (int i = 0; i < 1000; ++i) {
    keys[static_cast<std::size_t>(i)] = i;
    vals[static_cast<std::size_t>(i)] = i;
  }
  RadixScratch<std::int32_t, double> scratch;
  radix_sort_pairs(keys.data(), vals.data(), keys.size(), scratch);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));

  std::reverse(keys.begin(), keys.end());
  std::reverse(vals.begin(), vals.end());
  radix_sort_pairs(keys.data(), vals.data(), keys.size(), scratch);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_DOUBLE_EQ(vals[i], static_cast<double>(keys[i]));
}

TEST(RadixSortPairs, EmptyAndSingle) {
  RadixScratch<std::int32_t, double> scratch;
  radix_sort_pairs<std::int32_t, double>(nullptr, nullptr, 0, scratch);
  std::int32_t k = 7;
  double v = 1.0;
  radix_sort_pairs(&k, &v, 1, scratch);
  EXPECT_EQ(k, 7);
}

TEST(RadixSortPairs, DuplicateKeysAreStable) {
  // Stability: equal keys keep their input order of values.
  std::vector<std::int32_t> keys{5, 3, 5, 3, 5};
  std::vector<double> vals{1, 2, 3, 4, 5};
  RadixScratch<std::int32_t, double> scratch;
  radix_sort_pairs(keys.data(), vals.data(), keys.size(), scratch);
  EXPECT_EQ(keys, (std::vector<std::int32_t>{3, 3, 5, 5, 5}));
  EXPECT_EQ(vals, (std::vector<double>{2, 4, 1, 3, 5}));
}

TEST(RadixSortPairs, AllEqualKeysSkipEveryPass) {
  // Every byte histogram is degenerate, so all four passes are skipped and
  // the data must be left untouched in place (no scratch round-trip).
  const std::size_t n = 4096;
  std::vector<std::int32_t> keys(n, 42);
  std::vector<double> vals(n);
  for (std::size_t i = 0; i < n; ++i) vals[i] = static_cast<double>(i);
  RadixScratch<std::int32_t, double> scratch;
  radix_sort_pairs(keys.data(), vals.data(), n, scratch);
  EXPECT_TRUE(std::all_of(keys.begin(), keys.end(),
                          [](std::int32_t k) { return k == 42; }));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_DOUBLE_EQ(vals[i], static_cast<double>(i)) << "stability at " << i;
}

TEST(RadixSortPairs, Int32MaxKeys) {
  // Row indices at the very top of the key space: INT32_MAX has every digit
  // byte 0xff/0x7f, exercising the last histogram buckets of each pass.
  const std::size_t n = 1024;
  std::vector<std::int32_t> keys(n);
  std::vector<double> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = (i % 3 == 0) ? INT32_MAX
                           : static_cast<std::int32_t>(INT32_MAX - i);
    vals[i] = static_cast<double>(keys[i]);
  }
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  RadixScratch<std::int32_t, double> scratch;
  radix_sort_pairs(keys.data(), vals.data(), n, scratch);
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(keys.back(), INT32_MAX);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_DOUBLE_EQ(vals[i], static_cast<double>(keys[i]));
}

}  // namespace
