// Bench-facing workload factory.
//
// Every experiment in the paper is parameterized by (pattern, m, n, d, k):
// pattern in {ER, RMAT}, m rows, n cols per addend, d average nonzeros per
// column, k addends. This module turns that tuple into the k CSC matrices
// via the paper's recipe (one m x k*n R-MAT draw split along columns), and
// prints a one-line description for bench headers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/csc.hpp"

namespace spkadd::gen {

enum class Pattern { ER, RMAT };

struct WorkloadSpec {
  Pattern pattern = Pattern::ER;
  std::int64_t rows = 1 << 17;  ///< rounded up to a power of two
  std::int64_t cols = 1 << 10;  ///< per-addend columns, rounded to pow2
  std::int64_t avg_nnz_per_col = 16;  ///< the paper's "d"
  int k = 8;
  std::uint64_t seed = 42;

  [[nodiscard]] std::string describe() const;
};

/// Materialize the k addends. All have shape rows x cols (powers of two),
/// sorted canonical CSC.
std::vector<CscMatrix<std::int32_t, double>> make_workload(
    const WorkloadSpec& spec);

/// Sum of input nnz (the denominator of the compression factor and the work
/// unit of every complexity row in Table I).
std::size_t total_input_nnz(
    const std::vector<CscMatrix<std::int32_t, double>>& inputs);

/// Deterministically shuffle rows within each column so the workload becomes
/// *unsorted* — exercises the "need sorted inputs? no" column of Table I for
/// the hash and dense kernels and the unsorted-hash SUMMA variant of Fig. 6.
void shuffle_columns(CscMatrix<std::int32_t, double>& m, std::uint64_t seed);

}  // namespace spkadd::gen
