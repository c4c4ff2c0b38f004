// Pluggable multi-level cache hierarchy.
//
// Generalizes the single CacheModel into an ordered L1/L2/.../LLC stack with
// inclusive-fill LRU semantics: an access probes the levels outermost-in
// (L1 first); the first hit stops the walk — an L1 hit never touches L2 —
// and a miss at every level installs the line in each level it traversed.
// Per-level CacheStats (hits/misses/evictions) let the Table V traces
// report where the sliding partition's reuse actually lands.
//
// A HierarchySpec comes from explicit per-level CLI specs — e.g. the
// paper's 8MB-LLC EPYC modeled from a different host — via
// util::parse_cache_spec strings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cachesim/cache_model.hpp"
#include "util/cli.hpp"

namespace spkadd::cachesim {

/// One configurable hierarchy level.
struct LevelSpec {
  std::string name;           ///< "L1", "L2", "LLC", ...
  std::uint64_t bytes = 0;    ///< capacity of one cache of this level
  int ways = 8;               ///< associativity
  int line_bytes = 64;
  bool shared = false;        ///< shared among threads (typical LLC):
                              ///< a traced thread gets bytes/threads
};

/// Ordered outermost-in (L1 first) level stack.
struct HierarchySpec {
  std::vector<LevelSpec> levels;

  /// Explicit override from a "L1:32K:8,L2:1M:16,LLC:8M:16" CLI spec; the
  /// last level is marked shared. Throws std::invalid_argument on
  /// malformed specs (util::parse_cache_spec) or non-increasing sizes.
  [[nodiscard]] static HierarchySpec from_cli_spec(const std::string& spec);

  /// Throws std::invalid_argument unless there is >= 1 level and the
  /// capacities strictly increase outermost-in.
  void validate() const;

  /// Canonical "NAME:SIZE:WAYS,..." rendering (bench provenance).
  [[nodiscard]] std::string to_string() const;
};

/// Inclusive-fill multi-level LRU cache simulator. Each level reuses the
/// CacheModel set-associative core, so a single-level hierarchy reproduces
/// CacheModel's hit/miss sequence exactly on any address stream.
class CacheHierarchy {
 public:
  explicit CacheHierarchy(const HierarchySpec& spec);

  /// Touch one byte address; returns true when any level hit. Probes
  /// levels in order and stops at the first hit (an L1 hit never counts an
  /// L2 access); on a full miss the line is filled into every level.
  bool access(std::uint64_t addr);

  /// Touch a [addr, addr+size) range (every line the innermost level
  /// spans).
  void access_range(std::uint64_t addr, std::uint64_t size);

  [[nodiscard]] const CacheStats& level_stats(std::size_t i) const {
    return levels_[i].stats();
  }
  [[nodiscard]] std::vector<CacheStats> stats() const;
  void reset_stats();

 private:
  HierarchySpec spec_;
  std::vector<CacheModel> levels_;
};

}  // namespace spkadd::cachesim
