// Ablation bench for two design choices of the column kernels (see
// docs/ARCHITECTURE.md, "Kernel dispatch"):
//   1. sorted vs unsorted output for the hash family (the sort's share);
//   2. the symbolic phase's share of total time vs compression factor
//      (why the sliding *symbolic* matters most at high cf).
#include <iostream>

#include "bench_common.hpp"
#include "core/symbolic.hpp"
#include "matrix/validate.hpp"
#include "gen/workload.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace spkadd;

namespace {

using Inputs = std::vector<CscMatrix<std::int32_t, double>>;

Inputs workload(gen::Pattern p, std::int64_t rows, std::int64_t cols,
                std::int64_t d, int k, std::uint64_t seed) {
  gen::WorkloadSpec spec;
  spec.pattern = p;
  spec.rows = rows;
  spec.cols = cols;
  spec.avg_nnz_per_col = d;
  spec.k = k;
  spec.seed = seed;
  return gen::make_workload(spec);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_ablation", "design-choice ablations");
  const auto* rows = cli.add_int("rows", 1 << 15, "rows per matrix");
  const auto* repeats = cli.add_int("repeats", 3, "timing repetitions");
  if (!cli.parse(argc, argv)) return 1;
  const int reps = static_cast<int>(*repeats);

  bench::print_header("Ablations — sorting, symbolic share",
                      "design choices of §II-D and Fig. 6");

  // ---- 1. sorted vs unsorted output ------------------------------------
  std::cout << "### 1. Output sorting cost (hash family)\n";
  {
    util::TablePrinter table(
        {"method", "sorted (s)", "unsorted (s)", "sorted/unsorted"});
    const auto inputs = workload(gen::Pattern::ER, *rows, 64, 512, 32, 7002);
    for (auto m : {core::Method::Hash, core::Method::SlidingHash}) {
      core::Options sorted;
      core::Options unsorted;
      unsorted.sorted_output = false;
      const double ts = bench::time_spkadd(inputs, m, sorted, reps);
      const double tu = bench::time_spkadd(inputs, m, unsorted, reps);
      table.add_row({core::method_name(m),
                     util::TablePrinter::fmt_seconds(ts),
                     util::TablePrinter::fmt_seconds(tu),
                     util::TablePrinter::fmt_ratio(ts / tu)});
    }
    table.print(std::cout);
    std::cout << "expected: unsorted saves the per-column sort (the ~20% "
                 "local-multiply saving the paper reports in Fig. 6).\n\n";
  }

  // ---- 2. symbolic share vs compression factor -------------------------
  std::cout << "### 2. Symbolic-phase share vs compression factor\n";
  {
    util::TablePrinter table({"workload", "cf", "symbolic (s)", "total (s)",
                              "symbolic share"});
    struct Cfg {
      std::string name;
      int k;
      std::uint64_t seed;
      bool duplicate;  ///< add the same matrix k times => cf = k
    };
    for (const Cfg& cfg :
         {Cfg{"disjoint (cf~1)", 16, 7003, false},
          Cfg{"overlapping (cf~k)", 16, 7004, true}}) {
      Inputs inputs;
      if (cfg.duplicate) {
        const auto base =
            workload(gen::Pattern::ER, *rows, 64, 256, 1, cfg.seed)[0];
        inputs.assign(16, base);
      } else {
        inputs = workload(gen::Pattern::ER, *rows, 64, 256, cfg.k, cfg.seed);
      }
      core::Options hash_opts;
      hash_opts.method = core::Method::Hash;
      const auto out = core::spkadd(inputs, hash_opts);
      const double cf = compression_factor(
          std::span<const CscMatrix<std::int32_t, double>>(inputs), out);
      double sym_t = bench::time_best(reps, [&] {
        auto counts = core::symbolic_nnz_per_column(
            std::span<const CscMatrix<std::int32_t, double>>(inputs),
            core::Options{}, core::ColumnKernel::Hash);
        static std::size_t sink = 0;
        sink += counts.size();
      });
      const double total_t =
          bench::time_spkadd(inputs, core::Method::Hash, core::Options{}, reps);
      table.add_row({cfg.name, util::TablePrinter::fmt_ratio(cf),
                     util::TablePrinter::fmt_seconds(sym_t),
                     util::TablePrinter::fmt_seconds(total_t),
                     util::TablePrinter::fmt_ratio(sym_t / total_t)});
    }
    table.print(std::cout);
    std::cout << "expected: the symbolic share grows with cf because its "
                 "tables are sized by input nnz (cf times the output nnz) — "
                 "the reason sliding matters most for the symbolic phase.\n";
  }
  return 0;
}
