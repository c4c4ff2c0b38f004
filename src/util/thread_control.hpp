// The OpenMP thread budget as the library sees it, plus best-effort CPU
// affinity pinning for the service's worker threads. A call chooses its
// own team size through core::Options::threads; nothing here changes the
// process-global OpenMP default.
#pragma once

#include <cstddef>

namespace spkadd::util {

/// Number of threads OpenMP will use for the next parallel region.
[[nodiscard]] int current_max_threads();

/// Logical CPUs available to this process (never returns 0).
[[nodiscard]] std::size_t online_cpu_count();

/// Best-effort: pin the CALLING thread to logical CPU `cpu % online`.
/// Returns false where unsupported (non-Linux) or when the kernel
/// refuses — callers must treat pinning as an optimization, never a
/// correctness requirement. The aggregation service uses this to give
/// its workers stable thread/shard affinity on multi-core scaling runs.
bool pin_current_thread_to_cpu(std::size_t cpu);

}  // namespace spkadd::util
