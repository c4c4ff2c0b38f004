// Dense-accumulation bench: Hash vs DenseAcc (the SPA of Alg. 4) one-shot
// SpKAdd across a column-density axis (union fill from sparse to
// saturated). The dense kernel emits sorted columns by construction (a
// summary-bitmap walk over the occupied words, no radix sort) fed by a
// branch-free scatter into -0.0 slots, so it should pull ahead of hash as
// columns saturate. Bit-identity to Hash is a hard gate on every cell.
//
// `--json` emits the SampleLog document scripts/bench_smoke.sh commits as
// BENCH_dense.json.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "util/cli.hpp"

using namespace spkadd;
using Csc = CscMatrix<std::int32_t, double>;

namespace {

std::string ratio_cell(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ratio);
  return buf;
}

std::vector<Csc> density_workload(std::int64_t rows, std::int64_t cols,
                                  double density, int k,
                                  std::uint64_t seed) {
  gen::WorkloadSpec spec;
  spec.pattern = gen::Pattern::ER;
  spec.rows = rows;
  spec.cols = cols;
  const auto d = static_cast<std::int64_t>(density * static_cast<double>(rows));
  spec.avg_nnz_per_col = d > 0 ? d : 1;
  spec.k = k;
  spec.seed = seed;
  return gen::make_workload(spec);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_dense",
                      "dense-accumulation kernel density sweep");
  const auto* rows = cli.add_int("rows", 1 << 12, "rows per matrix (m)");
  const auto* cols = cli.add_int("cols", 32, "cols per matrix (n)");
  const auto* k = cli.add_int("k", 16, "addends per workload");
  const auto* repeats = cli.add_int("repeats", 3, "timing repetitions");
  const auto* threads = cli.add_int("threads", 0, "OpenMP threads (0=omp)");
  const auto* json = cli.add_string("json", "", "write JSON samples here");
  if (!cli.parse(argc, argv)) return 1;

  bench::print_header(
      "Dense accumulation (ColumnKernel::DenseAcc) density sweep",
      "the bitmap accumulator emits sorted columns without a radix sort, so "
      "it should overtake hash as column fill saturates");
  bench::SampleLog log("bench_dense");

  const std::string shape = "rows=" + std::to_string(*rows) +
                            " cols=" + std::to_string(*cols) +
                            " k=" + std::to_string(*k);

  core::Options base;
  base.threads = static_cast<int>(*threads);

  const std::vector<double> densities = {0.05, 0.25, 0.5, 1.0};
  const std::vector<core::Method> methods = {core::Method::Hash,
                                             core::Method::DenseAcc};

  bool all_exact = true;
  util::TablePrinter table({"density", "method", "Gnnz/s", "vs hash"});

  for (const double density : densities) {
    const auto inputs = density_workload(*rows, *cols, density,
                                         static_cast<int>(*k), 6100);
    const std::size_t in_nnz = gen::total_input_nnz(inputs);
    core::Options hash_opts = base;
    hash_opts.method = core::Method::Hash;
    const Csc expected = core::spkadd(inputs, hash_opts);

    double t_hash = 0.0;
    for (const core::Method m : methods) {
      core::Options opts = base;
      opts.method = m;
      Csc out;
      const bench::Timing lap = bench::time_median(
          static_cast<int>(*repeats),
          [&] { out = core::spkadd(inputs, opts); });
      const double t = lap.median;
      if (!(out == expected)) {
        std::cerr << "MISMATCH: " << core::method_name(m) << " at density "
                  << density << " is not bit-identical to Hash\n";
        all_exact = false;
      }
      if (m == core::Method::Hash) t_hash = t;
      char dens[16];
      std::snprintf(dens, sizeof(dens), "%.2f", density);
      table.add_row({dens, core::method_name(m), bench::gnnz_per_s(in_nnz, t),
                     ratio_cell(t > 0.0 ? t_hash / t : 0.0)});
      log.add("density=" + std::string(dens) + "/" + core::method_name(m),
              shape + " density=" + dens, lap, in_nnz);
    }
  }
  table.print(std::cout);

  if (!json->empty() && !log.write(*json)) return 1;
  return all_exact ? 0 : 1;
}
