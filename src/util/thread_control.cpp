#include "util/thread_control.hpp"

#include "util/omp_compat.hpp"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace spkadd::util {

int current_max_threads() { return omp_get_max_threads(); }

std::size_t online_cpu_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n != 0 ? static_cast<std::size_t>(n) : 1;
}

bool pin_current_thread_to_cpu(std::size_t cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % online_cpu_count(), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace spkadd::util
