#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "gen/workload.hpp"
#include "matrix/coo.hpp"
#include "util/cache_info.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"
#include "version.hpp"

namespace spkadd::bench {

void print_header(const std::string& title, const std::string& what) {
  const auto& info = util::cached_machine();
  std::cout << "# " << title << "\n"
            << "spkadd version: " << kVersion << "\n"
            << "reproduces: " << what << "\n"
            << "machine: " << info.summary() << "\n\n";
}

double time_best(int repeats, const std::function<void()>& fn) {
  double best = -1.0;
  for (int r = 0; r < std::max(1, repeats); ++r) {
    util::WallTimer t;
    fn();
    const double s = t.seconds();
    if (best < 0 || s < best) best = s;
  }
  return best;
}

double time_spkadd(const std::vector<CscMatrix<std::int32_t, double>>& inputs,
                   core::Method method, const core::Options& base_opts,
                   int repeats) {
  core::Options opts = base_opts;
  opts.method = method;
  return time_best(repeats, [&] {
    auto out = core::spkadd(inputs, opts);
    // Keep the result alive through the timer so allocation+fill is counted
    // but deallocation of the previous result is not part of the next lap.
    static thread_local std::size_t sink = 0;
    sink += out.nnz();
  });
}

const std::vector<core::Method>& table_methods() {
  static const std::vector<core::Method> methods = {
      core::Method::TwoWayIncremental, core::Method::ReferenceIncremental,
      core::Method::TwoWayTree,        core::Method::ReferenceTree,
      core::Method::Heap,              core::Method::DenseAcc,
      core::Method::Hash,              core::Method::SlidingHash,
      core::Method::Auto,
  };
  return methods;
}

std::string cell(double seconds) {
  return seconds < 0 ? "n/a" : util::TablePrinter::fmt_seconds(seconds);
}

std::string gnnz_per_s(std::size_t nnz, double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%#.3g",
                static_cast<double>(nnz) / seconds / 1e9);
  return buf;
}

namespace {

/// Densify column 0 of `m` to ~rows/2 entries (the hub): every even row,
/// deterministic values. Other columns keep their pattern.
CscMatrix<std::int32_t, double> with_hub_column(
    const CscMatrix<std::int32_t, double>& m, std::uint64_t seed) {
  CooMatrix<std::int32_t, double> coo(m.rows(), m.cols());
  for (std::int32_t r = 0; r < m.rows(); r += 2)
    coo.push(r, 0, 1.0 + static_cast<double>((r + seed) % 7));
  for (std::int32_t j = 1; j < m.cols(); ++j) {
    const auto col = m.column(j);
    for (std::size_t i = 0; i < col.nnz(); ++i)
      coo.push(col.rows[i], j, col.vals[i]);
  }
  coo.compress();
  return coo.to_csc();
}

}  // namespace

std::vector<SkewPreset> make_skew_presets(std::int64_t rows,
                                          std::int64_t cols, std::int64_t d,
                                          int k) {
  std::vector<SkewPreset> presets;
  gen::WorkloadSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.avg_nnz_per_col = d;
  spec.k = k;

  spec.pattern = gen::Pattern::ER;
  spec.seed = 1101;
  presets.push_back({"ER-uniform-k64", gen::make_workload(spec)});

  gen::WorkloadSpec tiny = spec;
  tiny.avg_nnz_per_col = 2;
  tiny.k = 4;
  tiny.seed = 1102;
  presets.push_back({"ER-sparse-k4", gen::make_workload(tiny)});

  spec.pattern = gen::Pattern::RMAT;
  spec.seed = 1103;
  presets.push_back({"RMAT-skew-k64", gen::make_workload(spec)});

  spec.seed = 1104;
  auto hub = gen::make_workload(spec);
  for (std::size_t i = 0; i < hub.size(); ++i)
    hub[i] = with_hub_column(hub[i], i);
  presets.push_back({"RMAT-hub-k64", std::move(hub)});
  return presets;
}

Timing time_median(int repeats, const std::function<void()>& fn) {
  std::vector<double> laps;
  laps.reserve(static_cast<std::size_t>(std::max(1, repeats)));
  for (int r = 0; r < std::max(1, repeats); ++r) {
    util::WallTimer t;
    fn();
    laps.push_back(t.seconds());
  }
  std::sort(laps.begin(), laps.end());
  const std::size_t n = laps.size();
  Timing out;
  out.median =
      n % 2 == 1 ? laps[n / 2] : 0.5 * (laps[n / 2 - 1] + laps[n / 2]);
  out.min = laps.front();
  out.p90 = laps[(9 * n + 9) / 10 - 1];  // rank ceil(0.9 n)
  out.reps = static_cast<int>(n);
  return out;
}

SampleLog::SampleLog(std::string bench) : bench_(std::move(bench)) {}

void SampleLog::add(const std::string& name, const std::string& config,
                    const Timing& seconds, std::size_t peak_intermediate_nnz) {
  samples_.push_back(Sample{name, config, seconds, peak_intermediate_nnz});
}

bool SampleLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "SampleLog: cannot open " << path << " for writing\n";
    return false;
  }
  out << "{\n"
      << "  \"bench\": \"" << util::json_escape(bench_) << "\",\n"
      << "  \"version\": \"" << util::json_escape(std::string(kVersion))
      << "\",\n"
      << "  \"machine\": \""
      << util::json_escape(util::cached_machine().summary()) << "\",\n"
      << "  \"samples\": [";
  const auto secs = [](double v) {
    std::ostringstream o;
    o.precision(9);
    o << v;
    return o.str();
  };
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Sample& s = samples_[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"name\": \"" << util::json_escape(s.name) << "\", "
        << "\"config\": \"" << util::json_escape(s.config) << "\", "
        << "\"median_seconds\": " << secs(s.seconds.median) << ", "
        << "\"min_seconds\": " << secs(s.seconds.min) << ", "
        << "\"p90_seconds\": " << secs(s.seconds.p90) << ", "
        << "\"reps\": " << s.seconds.reps << ", "
        << "\"peak_intermediate_nnz\": " << s.peak_intermediate_nnz << "}";
  }
  out << "\n  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace spkadd::bench
