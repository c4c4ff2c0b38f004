// Reproduces Fig. 4: runtime of the sliding-hash algorithm as a function of
// the (forced) hash-table size, split into symbolic / computation / total —
// for the paper's cases (a)-(d) on the detected machine and (e)-(f) with an
// 8MB LLC override modeling the AMD EPYC. The optimum should sit near
// LLC / (entry_bytes * threads); the rightmost column is "no partitioning".
#include <iostream>

#include "bench_common.hpp"
#include "core/spkadd.hpp"
#include "matrix/validate.hpp"
#include "core/symbolic.hpp"
#include "gen/workload.hpp"
#include "util/cache_info.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace spkadd;

namespace {

using Inputs = std::vector<CscMatrix<std::int32_t, double>>;

struct Case {
  std::string name;
  gen::Pattern pattern;
  std::int64_t rows, cols, d;
  int k;
  std::size_t llc_override;  ///< 0 = detected machine
};

void run_case(const Case& c, int repeats) {
  gen::WorkloadSpec spec;
  spec.pattern = c.pattern;
  spec.rows = c.rows;
  spec.cols = c.cols;
  spec.avg_nnz_per_col = c.d;
  spec.k = c.k;
  spec.seed = 4000;
  const Inputs inputs = gen::make_workload(spec);

  // Compression factor for the header (drives how much larger symbolic
  // tables are than numeric ones — the paper's Eukarya discussion).
  core::Options hash_opts;
  hash_opts.method = core::Method::Hash;
  const auto out = core::spkadd(inputs, hash_opts);
  const double cf = compression_factor(
      std::span<const CscMatrix<std::int32_t, double>>(inputs), out);

  std::cout << "### " << c.name << "  (" << spec.describe() << ", cf="
            << cf << (c.llc_override ? ", LLC override "
                      + std::to_string(c.llc_override >> 20) + "MB" : "")
            << ")\n";

  util::TablePrinter table({"table size", "symbolic", "computation", "total"});
  for (std::size_t cap = 1u << 7; cap <= (1u << 20); cap <<= 2) {
    core::Options opts;
    opts.method = core::Method::SlidingHash;
    opts.max_table_entries = cap;
    if (c.llc_override != 0) opts.llc_bytes = c.llc_override;

    double best_sym = -1, best_num = -1;
    for (int r = 0; r < repeats; ++r) {
      util::WallTimer t;
      const auto counts = core::symbolic_nnz_per_column(
          std::span<const CscMatrix<std::int32_t, double>>(inputs), opts,
          core::ColumnKernel::SlidingHash);
      const double sym = t.seconds();
      t.reset();
      auto result = core::spkadd(inputs, opts);
      const double total_run = t.seconds();
      // The full add re-runs its own symbolic phase; charge the remainder
      // to computation.
      const double num = std::max(0.0, total_run - sym);
      if (best_sym < 0 || sym < best_sym) best_sym = sym;
      if (best_num < 0 || num < best_num) best_num = num;
      static std::size_t sink = 0;
      sink += result.nnz() + counts.size();
    }
    table.add_row({std::to_string(cap),
                   util::TablePrinter::fmt_seconds(best_sym),
                   util::TablePrinter::fmt_seconds(best_num),
                   util::TablePrinter::fmt_seconds(best_sym + best_num)});
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_fig4_hashsize",
                      "Fig. 4: sliding-hash runtime vs hash table size");
  const auto* repeats = cli.add_int("repeats", 2, "timing repetitions");
  const auto* scale = cli.add_int("scale", 14, "log2 rows of the big cases");
  if (!cli.parse(argc, argv)) return 1;

  bench::print_header("Fig. 4 — optimum sliding-hash table size",
                      "paper Fig. 4 (a)-(f): the best table size tracks the "
                      "cache budget; tiny tables over-partition, huge tables "
                      "spill out of cache");

  const std::int64_t big = 1ll << *scale;
  const std::vector<Case> cases{
      // (a) small ER: L1-sized tables suffice.
      {"(a) ER small, d=64, k=32", gen::Pattern::ER, big / 4, 32, 64, 32, 0},
      // (b) dense ER columns: table spills the LLC without sliding.
      {"(b) ER dense, d=2048, k=32", gen::Pattern::ER, big, 8, 2048, 32, 0},
      // (c) skewed RMAT.
      {"(c) RMAT, d=512, k=32", gen::Pattern::RMAT, big, 32, 512, 32, 0},
      // (d) high compression factor (Eukarya-like): overlapping inputs.
      {"(d) high-cf RMAT, d=256, k=64", gen::Pattern::RMAT, big / 16, 16, 256,
       64, 0},
      // (e)/(f): same as (b)/(c) with the EPYC's 8MB LLC.
      {"(e) ER dense on 8MB LLC", gen::Pattern::ER, big, 8, 2048, 32,
       8u << 20},
      {"(f) RMAT on 8MB LLC", gen::Pattern::RMAT, big, 32, 512, 32, 8u << 20},
  };
  for (const auto& c : cases) run_case(c, static_cast<int>(*repeats));
  std::cout << "expected shape: total runtime is U-shaped in table size; "
               "the minimum sits near M/(b*T) and moves left with the "
               "smaller (8MB) LLC; the symbolic phase is the more sensitive "
               "one at high cf.\n";
  return 0;
}
