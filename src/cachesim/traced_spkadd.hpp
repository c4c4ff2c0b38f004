// Address-trace instrumented hash and sliding-hash SpKAdd.
//
// Replays the memory behaviour of the paper's hash algorithms through the
// cache simulator to count misses (the paper's Table V used Cachegrind):
// input columns stream sequentially, the hash table is hit at the probed
// slots, and the output streams sequentially. One thread is simulated
// against its fair share of each *shared* hierarchy level (capacity /
// threads; private L1/L2 are not divided), which models T threads
// competing for a shared LLC the same way the paper's table-size analysis
// does (MemAdd = b*T*nnz > M <=> per-thread need > M/T).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cachesim/cache_hierarchy.hpp"
#include "cachesim/cache_model.hpp"
#include "matrix/csc.hpp"

namespace spkadd::cachesim {

struct TraceConfig {
  /// The modeled machine; private levels are per-thread, shared levels are
  /// divided by `threads`.
  HierarchySpec hierarchy;
  int threads = 48;      ///< threads sharing the shared levels (the
                         ///< paper's Skylake run)
  bool sliding = false;  ///< Alg. 7/8 (sliding) vs Alg. 5/6 (plain)
  /// Force the sliding table entry cap (0 = derive from the last shared
  /// level / threads, as core::detail::table_entry_cap does). Mirrors the
  /// x-axis of Fig. 4.
  std::size_t max_table_entries = 0;
};

/// Per-level, per-phase miss counts of one replay. The levels are the
/// simulated per-thread hierarchy: a private level at least as large as
/// the divided shared level below it is not simulated, so there can be
/// fewer levels than in TraceConfig::hierarchy.
struct TraceResult {
  std::vector<std::string> level_names;  ///< "L1", "L2", "LLC", ...
  std::vector<CacheStats> symbolic;      ///< one per level
  std::vector<CacheStats> numeric;       ///< one per level

  [[nodiscard]] std::uint64_t level_misses(std::size_t i) const {
    return symbolic[i].misses + numeric[i].misses;
  }
  [[nodiscard]] std::uint64_t total_misses() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < symbolic.size(); ++i)
      total += level_misses(i);
    return total;
  }
  /// Accesses reaching the innermost level (every probe starts at L1, so
  /// this is the trace length; deeper levels only see upstream misses).
  [[nodiscard]] std::uint64_t total_accesses() const {
    if (symbolic.empty()) return 0;
    return symbolic.front().accesses + numeric.front().accesses;
  }
};

/// Replay hash (or sliding-hash) SpKAdd over `inputs` through the
/// hierarchy: the symbolic phase (Alg. 6, or Alg. 7's sliding partition),
/// then the numeric phase (Alg. 5, or Alg. 8). Structural only: values
/// never affect the trace. Deterministic for fixed inputs and config.
/// Throws std::invalid_argument when config.hierarchy is invalid.
TraceResult trace_spkadd(
    std::span<const CscMatrix<std::int32_t, double>> inputs,
    const TraceConfig& config);

}  // namespace spkadd::cachesim
