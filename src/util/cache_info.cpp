#include "util/cache_info.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace spkadd::util {
namespace {

/// Read a whole small sysfs file into a string; empty on failure.
std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Parse sizes like "32K", "1024K", "32M", "32768" (sysfs `size` format).
std::size_t parse_size(const std::string& s) {
  if (s.empty()) return 0;
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(s[i] - '0');
    ++i;
  }
  if (i < s.size()) {
    char unit = s[i];
    if (unit == 'K' || unit == 'k') value <<= 10;
    else if (unit == 'M' || unit == 'm') value <<= 20;
    else if (unit == 'G' || unit == 'g') value <<= 30;
  }
  return value;
}

int parse_int(const std::string& s) {
  try {
    return std::stoi(s);
  } catch (...) {
    return 0;
  }
}

}  // namespace

std::string MachineInfo::summary() const {
  std::ostringstream ss;
  ss << logical_cpus << " logical CPUs, L1D=" << (l1.bytes >> 10) << "KB";
  if (l2.bytes > 0) ss << ", L2=" << (l2.bytes >> 10) << "KB";
  ss << ", LLC=" << (llc.bytes >> 20) << "MB (" << llc.ways
     << "-way, " << llc.line_bytes << "B lines)";
  return ss.str();
}

MachineInfo detect_machine() {
  MachineInfo info;
  info.logical_cpus =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  // Paper's Skylake defaults; replaced below when sysfs is available.
  info.l1 = CacheLevel{1, 32u << 10, 64, 8, false};
  info.l2 = CacheLevel{2, 1u << 20, 64, 16, false};
  info.llc = CacheLevel{3, 32u << 20, 64, 11, true};

  namespace fs = std::filesystem;
  const fs::path base = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code ec;
  if (!fs::exists(base, ec)) return info;

  for (const auto& entry : fs::directory_iterator(base, ec)) {
    const fs::path dir = entry.path();
    if (dir.filename().string().rfind("index", 0) != 0) continue;
    const std::string type = slurp(dir / "type");
    if (type.rfind("Instruction", 0) == 0) continue;  // skip L1I
    CacheLevel lvl;
    lvl.level = parse_int(slurp(dir / "level"));
    lvl.bytes = parse_size(slurp(dir / "size"));
    std::size_t line = parse_size(slurp(dir / "coherency_line_size"));
    if (line != 0) lvl.line_bytes = line;
    int ways = parse_int(slurp(dir / "ways_of_associativity"));
    if (ways != 0) lvl.ways = ways;
    if (lvl.bytes == 0) continue;
    if (lvl.level == 1) info.l1 = lvl;
    else if (lvl.level == 2) info.l2 = lvl;
    else if (lvl.level >= 3) {
      lvl.shared = true;
      info.llc = lvl;
    }
  }
  // Machines without an L3 (some VMs) report only L2: treat it as the LLC.
  if (info.llc.bytes == 0 || info.llc.level == 0) {
    info.llc = info.l2;
    info.llc.shared = true;
  }
  return info;
}

const MachineInfo& cached_machine() {
  static const MachineInfo info = detect_machine();
  return info;
}

std::size_t effective_llc_bytes() { return cached_machine().llc.bytes; }

}  // namespace spkadd::util
