// Shared fixtures for the spkadd test suite: small deterministic matrix
// builders and the dense oracle every algorithm is checked against.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/workspace.hpp"
#include "matrix/coo.hpp"
#include "matrix/csc.hpp"
#include "matrix/dense.hpp"
#include "util/rng.hpp"

namespace spkadd::testing {

using Csc = CscMatrix<std::int32_t, double>;
using Coo = CooMatrix<std::int32_t, double>;

/// Build a matrix from (row, col, val) triplets (duplicates summed).
inline Csc from_triplets(std::int32_t rows, std::int32_t cols,
                         std::initializer_list<std::tuple<int, int, double>>
                             triplets) {
  Coo coo(rows, cols);
  for (const auto& [r, c, v] : triplets)
    coo.push(static_cast<std::int32_t>(r), static_cast<std::int32_t>(c), v);
  coo.compress();
  return coo.to_csc();
}

/// Uniform random sparse matrix with ~`nnz` entries (duplicates merged, so
/// the realized count may be slightly lower). Sorted canonical columns.
inline Csc random_matrix(std::int32_t rows, std::int32_t cols,
                         std::size_t nnz, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Coo coo(rows, cols);
  coo.reserve(nnz);
  for (std::size_t i = 0; i < nnz; ++i) {
    const auto r = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(rows)));
    const auto c = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(cols)));
    coo.push(r, c, 1.0 - rng.uniform());
  }
  coo.compress();
  return coo.to_csc();
}

/// k random conformant addends.
inline std::vector<Csc> random_collection(int k, std::int32_t rows,
                                          std::int32_t cols, std::size_t nnz,
                                          std::uint64_t seed) {
  std::vector<Csc> out;
  out.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i)
    out.push_back(random_matrix(rows, cols, nnz,
                                seed + static_cast<std::uint64_t>(i) * 7919));
  return out;
}

/// Dense oracle: B = sum inputs, emitted as CSC keeping exactly the union
/// of input patterns (the library keeps structural zeros).
inline Csc dense_sum_oracle(std::span<const Csc> inputs) {
  const std::int32_t rows = inputs[0].rows();
  const std::int32_t cols = inputs[0].cols();
  DenseMatrix<double> acc(rows, cols);
  std::vector<char> pattern(static_cast<std::size_t>(rows) *
                                static_cast<std::size_t>(cols),
                            0);
  for (const auto& m : inputs) {
    acc.accumulate(m);
    for (std::int32_t j = 0; j < cols; ++j) {
      const auto col = m.column(j);
      for (std::size_t i = 0; i < col.nnz(); ++i)
        pattern[static_cast<std::size_t>(j) * static_cast<std::size_t>(rows) +
                static_cast<std::size_t>(col.rows[i])] = 1;
    }
  }
  return acc.to_csc<std::int32_t>([&](std::int64_t r, std::int64_t c) {
    return pattern[static_cast<std::size_t>(c) *
                       static_cast<std::size_t>(rows) +
                   static_cast<std::size_t>(r)] != 0;
  });
}

/// Sort a possibly-unsorted result into canonical form (for comparing
/// sorted_output=false results against the oracle).
inline Csc canonicalized(Csc m) {
  m.sort_columns();
  return m;
}

/// The DenseAcc workspace contract between columns, on every thread of a
/// Runtime: every value slot is -0.0 by bit pattern (zero with the sign
/// bit set) and both bitmaps are all zero.
template <class IndexT, class ValueT>
bool dense_workspace_clean(const core::Runtime<IndexT, ValueT>& rt) {
  const auto zero_word = [](std::uint64_t w) { return w == 0; };
  return std::ranges::all_of(rt.scratch, [&](const auto& s) {
    return std::ranges::all_of(s.dense.values,
                               [](ValueT v) {
                                 return v == ValueT{0} && std::signbit(v);
                               }) &&
           std::ranges::all_of(s.dense.mask, zero_word) &&
           std::ranges::all_of(s.dense.summary, zero_word);
  });
}

}  // namespace spkadd::testing
