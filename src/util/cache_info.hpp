// Hardware cache-topology detection.
//
// The sliding-hash algorithm (paper Alg. 7/8) sizes its hash tables from the
// last-level-cache capacity M and the thread count T: each table is capped at
// M/(b*T) entries. This module discovers L1/L2/LLC sizes from
// /sys/devices/system/cpu at run time (Linux), with conservative fallbacks,
// and allows explicit overrides so benches can model other machines (e.g.
// the paper's 8MB-LLC AMD EPYC from a 32MB-LLC host).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace spkadd::util {

/// One cache level as reported by the OS.
struct CacheLevel {
  int level = 0;             ///< 1, 2, 3...
  std::size_t bytes = 0;     ///< total capacity of one cache of this level
  std::size_t line_bytes = 64;
  int ways = 8;              ///< associativity
  bool shared = false;       ///< shared among cores (true for typical LLC)
};

/// Snapshot of the machine relevant to SpKAdd: cores, cache hierarchy.
/// Mirrors the columns of the paper's Table II.
struct MachineInfo {
  int logical_cpus = 1;
  CacheLevel l1;   ///< per-core L1D
  CacheLevel l2;   ///< per-core L2 (bytes==0 if absent)
  CacheLevel llc;  ///< last-level cache (shared)

  /// Human-readable one-line summary (printed as the Table II analog at the
  /// top of every benchmark).
  [[nodiscard]] std::string summary() const;
};

/// Detect the current machine. Never fails: missing sysfs entries fall back
/// to (32KB L1, 1MB L2, 32MB LLC, 64B lines) — the paper's Intel Skylake.
[[nodiscard]] MachineInfo detect_machine();

/// detect_machine() probed exactly once per process. The hot dispatch paths
/// (plan_hybrid, table_entry_cap) consult the machine topology on every
/// fold; this accessor makes that a static read instead of a repeated
/// sysfs walk.
[[nodiscard]] const MachineInfo& cached_machine();

/// Process-wide LLC-size override (0 = use detected). Benches use this to
/// emulate the paper's EPYC (8MB) case; the sliding-hash sizing reads it
/// through effective_llc_bytes().
void set_llc_override(std::size_t bytes);
[[nodiscard]] std::size_t llc_override();

/// LLC capacity the sliding-hash algorithm should budget against:
/// the override if set, otherwise the detected size.
[[nodiscard]] std::size_t effective_llc_bytes();

}  // namespace spkadd::util
