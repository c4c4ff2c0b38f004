#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void PeakRss::reset() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  reset_ok_ = static_cast<bool>(f);
}

double PeakRss::peak_mib() const {
  if (reset_ok_) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

StealMeter::Ticks StealMeter::read() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  Ticks t;
  for (int i = 0; i < 8 && stat; ++i) {
    std::uint64_t v = 0;
    stat >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealMeter::percent() const {
  const Ticks end = read();
  const std::uint64_t total = end.total - start_.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(end.steal - start_.steal) /
                          static_cast<double>(total);
}

Scope::Scope(Lane* lane, const char* name, std::uint64_t op) : lane_(lane) {
  if (lane_ == nullptr) return;
  const std::int64_t parent = lane_->open.empty() ? -1 : lane_->open.back();
  index_ = static_cast<std::int64_t>(lane_->spans.size());
  lane_->spans.push_back(Span{name, now_ns(), 0, parent, op});
  lane_->open.push_back(index_);
}

Scope::~Scope() {
  if (lane_ == nullptr) return;
  lane_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  lane_->open.pop_back();
}

void Scope::rename(const char* name) {
  if (lane_ != nullptr) lane_->spans[static_cast<std::size_t>(index_)].name = name;
}

Lane* Tracer::add_lane(const char* label) {
  lanes_.push_back(std::make_unique<Lane>(label));
  lanes_.back()->spans.reserve(1 << 16);
  return lanes_.back().get();
}

namespace {

constexpr std::string_view kSetupLane = "setup";

bool named(const Span& s, const char* name) {
  return std::string_view(s.name) == name;
}

}  // namespace

std::vector<double> Tracer::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const auto& lane : lanes_) {
    if (lane->label == kSetupLane) continue;
    for (const Span& s : lane->spans)
      if (named(s, name)) out.push_back(ns_to_ms(s.end_ns - s.start_ns));
  }
  return out;
}

std::vector<double> Tracer::self_ms(const char* name) const {
  std::vector<double> out;
  for (const auto& lane : lanes_) {
    if (lane->label == kSetupLane) continue;
    std::vector<std::uint64_t> child_ns(lane->spans.size(), 0);
    for (const Span& s : lane->spans)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    for (std::size_t i = 0; i < lane->spans.size(); ++i) {
      const Span& s = lane->spans[i];
      if (named(s, name))
        out.push_back(ns_to_ms(s.end_ns - s.start_ns - child_ns[i]));
    }
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& lane : lanes_) {
    for (std::size_t i = 0; i < lane->spans.size(); ++i) {
      const Span& s = lane->spans[i];
      out << "{\"lane\":\"" << lane->label << "\",\"id\":" << i
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << "}\n";
    }
  }
  return static_cast<bool>(out);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Outcome::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i != 0) out << ", ";
    out << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
