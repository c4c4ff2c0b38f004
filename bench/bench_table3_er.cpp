// Reproduces Table III: runtime of every SpKAdd algorithm on ER matrices
// for a (d, k) grid. Default sizes are laptop-scale (the paper used
// m=4M-row matrices on a 48-core Skylake); --rows/--cols/--full scale up.
// Cells whose estimated merge work exceeds --op-budget print "n/a",
// mirroring the paper's "could not run" entries.
#include <iostream>

#include "bench_common.hpp"
#include "gen/workload.hpp"
#include "util/cli.hpp"

using namespace spkadd;

int main(int argc, char** argv) {
  util::CliParser cli("bench_table3_er", "Table III: SpKAdd on ER matrices");
  const auto* rows = cli.add_int("rows", 1 << 16, "rows per matrix (m)");
  const auto* cols = cli.add_int("cols", 64, "cols per matrix (n)");
  const auto* repeats =
      cli.add_int("repeats", 2, "timing repetitions (best-of)");
  const auto* full = cli.add_flag("full", "paper-scale d values (slow)");
  const auto* op_budget = cli.add_int(
      "op-budget", 2'000'000'000,
      "skip a cell when estimated merge ops exceed this");
  if (!cli.parse(argc, argv)) return 1;

  bench::print_header("Table III — SpKAdd runtime (seconds), ER matrices",
                      "paper Table III (Intel Skylake 48 cores; shapes, not "
                      "absolute numbers, are the reproduction target)");

  const std::vector<std::int64_t> ds =
      *full ? std::vector<std::int64_t>{16, 1024, 8192}
            : std::vector<std::int64_t>{16, 256, 2048};
  const std::vector<int> ks{4, 32, 128};

  std::vector<std::string> headers{"Algorithm"};
  for (auto d : ds)
    for (int k : ks)
      headers.push_back("d=" + std::to_string(d) + ",k=" + std::to_string(k));
  util::TablePrinter table(headers);

  // Generate all workloads once (generation dwarfs timing otherwise).
  std::vector<std::vector<CscMatrix<std::int32_t, double>>> workloads;
  for (auto d : ds) {
    for (int k : ks) {
      gen::WorkloadSpec spec;
      spec.pattern = gen::Pattern::ER;
      spec.rows = *rows;
      spec.cols = *cols;
      spec.avg_nnz_per_col = d;
      spec.k = k;
      spec.seed = 1000 + static_cast<std::uint64_t>(d) * 10 +
                  static_cast<std::uint64_t>(k);
      workloads.push_back(gen::make_workload(spec));
      std::cerr << "generated " << spec.describe() << "\n";
    }
  }

  for (core::Method method : bench::table_methods()) {
    std::vector<std::string> row{core::method_name(method)};
    std::size_t w = 0;
    for ([[maybe_unused]] auto d : ds) {
      for (int k : ks) {
        const auto& inputs = workloads[w++];
        // Incremental methods re-stream the growing partial sum: estimated
        // work ~ k/2 * total input nnz. Skip cells over budget like the
        // paper's "could not run".
        const double est =
            (method == core::Method::TwoWayIncremental ||
             method == core::Method::ReferenceIncremental)
                ? 0.5 * static_cast<double>(k) *
                      static_cast<double>(gen::total_input_nnz(inputs))
                : static_cast<double>(gen::total_input_nnz(inputs));
        if (est > static_cast<double>(*op_budget)) {
          row.push_back("n/a");
          continue;
        }
        row.push_back(bench::cell(bench::time_spkadd(
            inputs, method, core::Options{}, static_cast<int>(*repeats))));
      }
    }
    table.add_row(std::move(row));
    std::cerr << "done: " << core::method_name(method) << "\n";
  }
  table.print(std::cout);
  std::cout << "\nexpected shape (paper): Hash fastest for small d; Sliding "
               "Hash overtakes at large d*k; 2-way Incremental worst and "
               "growing with k; Heap/2-way Tree carry the lg(k) factor; SPA "
               "competitive only at high density. DenseAcc, the SPA's bitmap "
               "form here, also leads hash at small d.\n";
  return 0;
}
