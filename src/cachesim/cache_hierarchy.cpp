#include "cachesim/cache_hierarchy.hpp"

#include <stdexcept>

namespace spkadd::cachesim {

HierarchySpec HierarchySpec::from_cli_spec(const std::string& text) {
  HierarchySpec spec;
  for (const util::CacheLevelSpec& l : util::parse_cache_spec(text))
    spec.levels.push_back(LevelSpec{l.name, l.bytes, l.ways, 64, false});
  spec.levels.back().shared = true;
  spec.validate();
  return spec;
}

void HierarchySpec::validate() const {
  if (levels.empty())
    throw std::invalid_argument("HierarchySpec: needs at least one level");
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const LevelSpec& l = levels[i];
    if (l.bytes == 0 || l.ways <= 0 || l.line_bytes <= 0)
      throw std::invalid_argument("HierarchySpec: level '" + l.name +
                                  "' has a zero/negative dimension");
    if (i > 0 && l.bytes <= levels[i - 1].bytes)
      throw std::invalid_argument(
          "HierarchySpec: capacities must strictly increase outermost-in ('" +
          levels[i - 1].name + "' >= '" + l.name + "')");
  }
}

std::string HierarchySpec::to_string() const {
  std::vector<util::CacheLevelSpec> out;
  out.reserve(levels.size());
  for (const LevelSpec& l : levels)
    out.push_back(util::CacheLevelSpec{l.name, l.bytes, l.ways});
  return util::format_cache_spec(out);
}

CacheHierarchy::CacheHierarchy(const HierarchySpec& spec) : spec_(spec) {
  spec_.validate();
  levels_.reserve(spec_.levels.size());
  for (const LevelSpec& l : spec_.levels) {
    CacheConfig cfg;
    cfg.bytes = l.bytes;
    cfg.ways = l.ways;
    cfg.line_bytes = l.line_bytes;
    levels_.emplace_back(cfg);
  }
}

bool CacheHierarchy::access(std::uint64_t addr) {
  // First hit stops the walk; CacheModel::access fills on miss, so every
  // traversed level ends up holding the line (inclusive fill).
  for (CacheModel& level : levels_)
    if (level.access(addr)) return true;
  return false;
}

void CacheHierarchy::access_range(std::uint64_t addr, std::uint64_t size) {
  if (size == 0) return;
  const std::uint64_t line =
      static_cast<std::uint64_t>(spec_.levels.front().line_bytes);
  const std::uint64_t first = addr & ~(line - 1);
  const std::uint64_t last = (addr + size - 1) & ~(line - 1);
  for (std::uint64_t a = first; a <= last; a += line) access(a);
}

std::vector<CacheStats> CacheHierarchy::stats() const {
  std::vector<CacheStats> out;
  out.reserve(levels_.size());
  for (const CacheModel& level : levels_) out.push_back(level.stats());
  return out;
}

void CacheHierarchy::reset_stats() {
  for (CacheModel& level : levels_) level.reset_stats();
}

}  // namespace spkadd::cachesim
