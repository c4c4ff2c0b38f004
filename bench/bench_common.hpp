// Shared harness for the paper-reproduction benches: machine header
// (Table II analog), repeat-and-min timing, method sweeps, and the
// machine-readable JSON sample log behind every bench's `--json <path>`
// mode (the perf-trajectory artifact CI uploads per run).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/spkadd.hpp"
#include "matrix/csc.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

namespace spkadd::bench {

/// Print the program banner + detected machine (every bench leads with the
/// Table II analog so results are interpretable).
void print_header(const std::string& title, const std::string& what);

/// Best-of-`repeats` wall time of `fn` in seconds (min, the conventional
/// benchmark statistic for compute kernels).
double time_best(int repeats, const std::function<void()>& fn);

/// Run one SpKAdd method over `inputs` and return best-of-`repeats` seconds.
double time_spkadd(const std::vector<CscMatrix<std::int32_t, double>>& inputs,
                   core::Method method, const core::Options& base_opts,
                   int repeats);

/// The method rows of Tables III/IV in paper order (DenseAcc is the
/// paper's SPA), then the per-chunk planner.
const std::vector<core::Method>& table_methods();

/// One named skew-sweep workload of bench_hybrid.
struct SkewPreset {
  std::string name;
  std::vector<CscMatrix<std::int32_t, double>> inputs;
};

/// The four presets spanning the skew axis of the per-chunk Fig. 2
/// surface: ER-uniform-k64, ER-sparse-k4 (the heap corner), RMAT-skew-k64
/// and RMAT-hub-k64 (one dense hub column among sparse ones). `k` sets the
/// addend count of the k64 presets; the sparse preset always uses k=4,d=2.
std::vector<SkewPreset> make_skew_presets(std::int64_t rows,
                                          std::int64_t cols, std::int64_t d,
                                          int k);

/// Shorthand: "0.0083" or "n/a" when seconds < 0 (method skipped).
std::string cell(double seconds);

/// Throughput cell: `nnz` input nonzeros over `seconds`, in Gnnz/s to 3
/// significant digits ("0.00234", "0.0512", "1.20"), so small shapes
/// print more than one digit.
std::string gnnz_per_s(std::size_t nnz, double seconds);

/// The laps of one repeated wall-time measurement, in seconds: the
/// median and the spread every SampleLog sample records.
struct Timing {
  double median = 0;
  double min = 0;
  double p90 = 0;  ///< nearest-rank 90th percentile
  int reps = 1;

  /// A value that is not a median of repeated laps (a per-update mean, a
  /// latency quantile): one rep, whose min and p90 are the value itself.
  [[nodiscard]] static Timing once(double seconds) {
    return {seconds, seconds, seconds, 1};
  }
};

/// `repeats` wall-time laps of `fn`, summarized. The median is the
/// statistic the JSON perf trajectory compares (robust to one-off
/// outliers, unlike min); min and p90 record the laps' spread.
Timing time_median(int repeats, const std::function<void()>& fn);

/// One machine-readable benchmark sample.
struct Sample {
  std::string name;    ///< what was measured, e.g. "streaming/RMAT/k=64"
  std::string config;  ///< free-form knobs, e.g. "grid=4 window=2"
  Timing seconds;      ///< wall seconds
  std::size_t peak_intermediate_nnz = 0;  ///< 0 when not applicable
};

/// Collects samples and writes the bench's `--json <path>` document:
///   {"bench": ..., "version": ..., "machine": ..., "samples": [...]}
/// where each sample carries median_seconds, min_seconds, p90_seconds and
/// reps (schema 2). scripts/bench_smoke.sh merges these per-bench
/// documents into the BENCH_*.json perf-trajectory artifacts.
class SampleLog {
 public:
  explicit SampleLog(std::string bench);

  void add(const std::string& name, const std::string& config,
           const Timing& seconds, std::size_t peak_intermediate_nnz = 0);

  /// Write the JSON document; returns false (with a stderr note) when the
  /// file cannot be opened.
  [[nodiscard]] bool write(const std::string& path) const;

  [[nodiscard]] bool empty() const { return samples_.empty(); }

 private:
  std::string bench_;
  std::vector<Sample> samples_;
};

}  // namespace spkadd::bench
