// OpenMP or serial stand-ins — include this instead of <omp.h>.
//
// The library advertises "builds single-threaded when OpenMP is absent"
// (and the TSAN CI leg builds that way on purpose: libgomp is not
// TSAN-instrumented, and that leg targets the aggregation service's own
// std::thread layer). Without OpenMP the `#pragma omp` lines are
// ignored by the compiler, but direct omp_*() runtime calls would fail
// to link — these inline serial definitions keep them meaningful:
// one team, one thread, thread id 0.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#else

inline int omp_get_max_threads() { return 1; }
inline int omp_get_num_threads() { return 1; }
inline int omp_get_thread_num() { return 0; }

#endif
