// Measurement plumbing shared by every workload: clocks and order
// statistics, the peak-RSS probe, the span recorder of the traced run,
// and the metric list the run prints as its last stdout line.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double ns_to_ms(std::uint64_t ns) {
  return static_cast<double>(ns) * 1e-6;
}

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics (numpy's default). Returns 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process. reset() starts a new high-water
/// mark (writes 5 to /proc/self/clear_refs); when the kernel refuses,
/// peak_mib() falls back to getrusage's whole-process maximum.
class PeakRss {
 public:
  void reset();
  [[nodiscard]] double peak_mib() const;

 private:
  bool reset_ok_ = false;
};

/// CPU time the hypervisor gave to other guests ("steal"), as a share of
/// all CPU time between two reads of /proc/stat. A diagnostic: on shared
/// hosts it explains runs that are slow for reasons outside the program.
class StealMeter {
 public:
  StealMeter() : start_(read()) {}
  [[nodiscard]] double percent() const;

 private:
  struct Ticks {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
  };
  static Ticks read();
  Ticks start_;
};

/// One timed call. Spans of one thread live in one Lane; `parent` indexes
/// the enclosing span of the same lane (-1 at top level) and `op` names
/// the closed-loop operation (call, pass, round, burst, cycle) it served.
struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int64_t parent;
  std::uint64_t op;
};

/// The spans of one thread, kept in memory until the run ends.
struct Lane {
  explicit Lane(const char* label_) : label(label_) {}
  const char* label;
  std::vector<Span> spans;
  std::vector<std::int64_t> open;  ///< indices of unfinished spans
};

/// RAII span on a lane; a null lane makes it a no-op (untraced runs).
class Scope {
 public:
  Scope(Lane* lane, const char* name, std::uint64_t op);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Name the span after the call returned (e.g. an Accumulator add()
  /// that folded vs one that only staged).
  void rename(const char* name);

 private:
  Lane* lane_;
  std::int64_t index_ = -1;
};

/// Every lane of a traced run. Lanes are created up front, one per
/// thread, so recording never takes a lock.
class Tracer {
 public:
  Lane* add_lane(const char* label);
  /// Durations (ms) of every span called `name`, on lanes other than
  /// the set-up lane.
  [[nodiscard]] std::vector<double> durations_ms(const char* name) const;
  /// Self times (ms): each span's duration minus its children's.
  [[nodiscard]] std::vector<double> self_ms(const char* name) const;
  /// One JSON object per span, one per line.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// A metric value with its unit, printed in insertion order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;
};

/// JSON number with every digit a double holds (never rounds two
/// different measurements to the same text).
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
