// Per-chunk planner vs best-single-kernel skew sweep.
//
// Four presets span the skew axis the per-chunk Fig. 2 surface exists for:
//   ER-uniform-k64  — uniform columns, one kernel everywhere is optimal;
//   ER-sparse-k4    — tiny k, very sparse columns: the heap corner;
//   RMAT-skew-k64   — power-law column loads, no dense hub;
//   RMAT-hub-k64    — one dense hub column among sparse ones, the case
//                     where any single kernel is wrong for most columns.
// Every method result is checked bit-identical to Hash (all column
// kernels are strict left folds); the summary reports the planner
// (Method::Auto) vs the best single kernel per preset, and `--json` emits
// the SampleLog document scripts/bench_smoke.sh commits as
// BENCH_hybrid.json.
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cachesim/cache_hierarchy.hpp"
#include "gen/workload.hpp"
#include "util/cli.hpp"

using namespace spkadd;
using Csc = CscMatrix<std::int32_t, double>;

namespace {

std::string pct(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", (ratio - 1.0) * 100.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_hybrid",
                      "per-chunk hybrid dispatch vs single-kernel methods");
  const auto* rows = cli.add_int("rows", 1 << 15, "rows per matrix (m)");
  const auto* cols = cli.add_int("cols", 64, "cols per matrix (n)");
  const auto* d = cli.add_int("d", 8, "avg nonzeros per column per addend");
  const auto* k = cli.add_int("k", 64, "addends in the k=64 presets");
  const auto* repeats = cli.add_int("repeats", 3, "timing repetitions");
  const auto* threads = cli.add_int("threads", 0, "OpenMP threads (0=omp)");
  const auto* cache_spec = cli.add_string(
      "cache-spec", "",
      "pin the modeled hierarchy, e.g. L1:32K:8,L2:1M:16,LLC:8M:16; the "
      "last level's capacity drives the decision surface (empty = "
      "detected)");
  const auto* json = cli.add_string("json", "", "write JSON samples here");
  if (!cli.parse(argc, argv)) return 1;
  if (*threads < 0) {
    std::cerr << "bench_hybrid: --threads must be >= 0\n";
    return 1;
  }
  std::size_t llc_bytes = 0;
  if (!cache_spec->empty()) {
    try {
      const auto hier = cachesim::HierarchySpec::from_cli_spec(*cache_spec);
      llc_bytes = static_cast<std::size_t>(hier.levels.back().bytes);
    } catch (const std::invalid_argument& e) {
      std::cerr << "bench_hybrid: bad --cache-spec: " << e.what() << "\n";
      return 1;
    }
  }

  bench::print_header(
      "Per-chunk planner (Method::Auto) skew sweep",
      "per-chunk Fig. 2 dispatch should track the best single kernel on "
      "every preset");
  bench::SampleLog log("bench_hybrid");

  const std::string shape =
      "rows=" + std::to_string(*rows) + " cols=" + std::to_string(*cols) +
      " d=" + std::to_string(*d) + " k=" + std::to_string(*k) +
      " llc=" + std::to_string(llc_bytes);

  const std::vector<bench::SkewPreset> presets =
      bench::make_skew_presets(*rows, *cols, *d, static_cast<int>(*k));

  const std::vector<core::Method> methods = {
      core::Method::Heap, core::Method::Hash, core::Method::SlidingHash,
      core::Method::DenseAcc, core::Method::Auto};

  bool all_exact = true;
  util::TablePrinter table({"preset", "method", "Gnnz/s", "chunks h/H/W/D"});
  util::TablePrinter verdict({"preset", "best single", "auto vs best"});

  for (const bench::SkewPreset& p : presets) {
    const std::size_t in_nnz = gen::total_input_nnz(p.inputs);
    core::Options base;
    base.threads = static_cast<int>(*threads);
    base.llc_bytes = llc_bytes;

    core::Options hash_opts = base;
    hash_opts.method = core::Method::Hash;
    const Csc expected = core::spkadd(p.inputs, hash_opts);

    double best_single = -1.0;
    std::string best_name;
    double t_auto = 0.0;
    for (const core::Method m : methods) {
      core::Options opts = base;
      opts.method = m;
      Csc out;
      const double t = bench::time_median(
          static_cast<int>(*repeats),
          [&] { out = core::spkadd(p.inputs, opts); });
      if (!(out == expected)) {
        std::cerr << "MISMATCH: " << core::method_name(m) << " on " << p.name
                  << " is not bit-identical to Hash\n";
        all_exact = false;
      }
      std::string mix = "-";
      if (m == core::Method::Auto) {
        t_auto = t;
        core::OpCounters counters;
        core::Options copts = opts;
        copts.counters = &counters;
        (void)core::spkadd(p.inputs, copts);
        mix = counters.chunk_mix();
      } else if (best_single < 0 || t < best_single) {
        best_single = t;
        best_name = core::method_name(m);
      }
      table.add_row(
          {p.name, core::method_name(m), bench::gnnz_per_s(in_nnz, t), mix});
      log.add(p.name + "/" + core::method_name(m),
              shape + (mix == "-" ? "" : " chunks=" + mix), t, in_nnz);
    }
    verdict.add_row({p.name, best_name, pct(t_auto / best_single)});
  }

  table.print(std::cout);
  std::cout << "\nPlanner overhead vs the best single kernel (negative = "
               "planner faster):\n";
  verdict.print(std::cout);
  std::cout << "\nexpected shape: Auto within a few percent of the best "
               "single kernel on every preset.\n";
  if (!json->empty() && !log.write(*json)) return 1;
  return all_exact ? 0 : 1;
}
