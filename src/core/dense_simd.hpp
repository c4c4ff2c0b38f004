// SIMD primitives for the DenseAcc column kernel.
//
// Two implementations behind one API, chosen at compile time:
//   * SPKADD_FORCE_SCALAR — plain scalar loops, the escape hatch CI builds
//     with so the non-SIMD path cannot rot on x86 runners;
//   * otherwise — `#pragma omp simd` loops the compiler autovectorizes for
//     whatever the target ISA offers (SSE2 baseline, AVX2 under -mavx2,
//     NEON, ...).
//
// Only the *conflict-free* loops are vectorized: dense+dense value adds,
// dense copies, and the row-iota of the full-word emission sweep. The
// sparse scatter itself stays scalar — vectorizing a scatter-add over
// possibly-duplicate row indices needs AVX-512 conflict detection and
// would still have to preserve the strict left-to-right accumulation
// order, so the honest wins are the dense paths.
#pragma once

#include <cstddef>

namespace spkadd::core::simd {

#if defined(SPKADD_FORCE_SCALAR)

/// acc[i] += add[i] for i in [0, n).
template <class ValueT>
inline void dense_add(ValueT* acc, const ValueT* add, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += add[i];
}

/// dst[i] = src[i] for i in [0, n).
template <class ValueT>
inline void dense_copy(ValueT* dst, const ValueT* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

/// dst[i] = first + i for i in [0, n) (emission row indices).
template <class IndexT>
inline void iota_rows(IndexT* dst, IndexT first, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = first + static_cast<IndexT>(i);
}

#else

template <class ValueT>
inline void dense_add(ValueT* acc, const ValueT* add, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) acc[i] += add[i];
}

template <class ValueT>
inline void dense_copy(ValueT* dst, const ValueT* src, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

template <class IndexT>
inline void iota_rows(IndexT* dst, IndexT first, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = first + static_cast<IndexT>(i);
}

#endif

}  // namespace spkadd::core::simd
