// Exclusive prefix sums (scans).
//
// Every SpKAdd numeric phase turns a per-column nnz count (from the symbolic
// phase) into the CSC column-pointer array via an exclusive scan; the scan is
// parallelized for large n with the classic two-pass block algorithm.
#pragma once

#include "util/omp_compat.hpp"

#include <cstddef>
#include <span>
#include <vector>

namespace spkadd::util {

/// Sequential exclusive scan: out[i] = sum(in[0..i)), out has size
/// in.size()+1 so out.back() is the grand total.
template <class T>
void exclusive_scan_seq(std::span<const T> in, std::span<T> out) {
  T run{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = run;
    run += in[i];
  }
  out[in.size()] = run;
}

/// Parallel two-pass exclusive scan on a team of `threads` (0 = the
/// ambient omp_get_max_threads()). `out` must have size `in.size() + 1`.
/// Falls back to the sequential version for small inputs where the fork/join
/// overhead dominates.
template <class T>
void exclusive_scan(std::span<const T> in, std::span<T> out, int threads = 0) {
  const std::size_t n = in.size();
  constexpr std::size_t kParallelThreshold = 1u << 15;
  const int team = threads > 0 ? threads : omp_get_max_threads();
  if (n < kParallelThreshold || team == 1) {
    exclusive_scan_seq(in, out);
    return;
  }

  std::vector<T> block_sums;
#pragma omp parallel num_threads(team)
  {
    const int nt = omp_get_num_threads();
    const int tid = omp_get_thread_num();
#pragma omp single
    block_sums.assign(static_cast<std::size_t>(nt) + 1, T{});
    const std::size_t chunk = (n + static_cast<std::size_t>(nt) - 1) /
                              static_cast<std::size_t>(nt);
    const std::size_t lo = std::min(n, chunk * static_cast<std::size_t>(tid));
    const std::size_t hi = std::min(n, lo + chunk);
    T local{};
    for (std::size_t i = lo; i < hi; ++i) local += in[i];
    block_sums[static_cast<std::size_t>(tid) + 1] = local;
#pragma omp barrier
#pragma omp single
    for (std::size_t t = 1; t < block_sums.size(); ++t)
      block_sums[t] += block_sums[t - 1];
    T run = block_sums[static_cast<std::size_t>(tid)];
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = run;
      run += in[i];
    }
  }
  out[n] = block_sums.back();
}

/// Convenience: scan a vector of counts into a fresh (n+1)-element pointer
/// array (the CSC `col_ptr` shape) on a team of `threads` (0 = ambient).
template <class T>
[[nodiscard]] std::vector<T> counts_to_offsets(std::span<const T> counts,
                                               int threads = 0) {
  std::vector<T> offsets(counts.size() + 1);
  exclusive_scan(counts, std::span<T>(offsets), threads);
  return offsets;
}

}  // namespace spkadd::util
