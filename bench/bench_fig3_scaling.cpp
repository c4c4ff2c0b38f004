// Reproduces Fig. 3: strong scaling of the SpKAdd algorithms over thread
// counts, for (a) ER, (b) RMAT, and (c) SpGEMM intermediate matrices (the
// Eukarya surrogate). On a single-core host the sweep is flat by
// construction — the thread machinery still runs and the relative method
// ordering at each thread count is the reproducible signal.
#include <iostream>

#include "bench_common.hpp"
#include "gen/rmat.hpp"
#include "gen/workload.hpp"
#include "matrix/block.hpp"
#include "spgemm/local_spgemm.hpp"
#include "util/bit_ops.hpp"
#include "util/cli.hpp"
#include "util/thread_control.hpp"

using namespace spkadd;

namespace {

using Inputs = std::vector<CscMatrix<std::int32_t, double>>;

void scaling_case(const std::string& title, const Inputs& inputs,
                  const std::vector<int>& thread_counts, int repeats) {
  std::cout << "### " << title << "\n";
  std::vector<std::string> headers{"Algorithm"};
  for (int t : thread_counts) headers.push_back("T=" + std::to_string(t));
  util::TablePrinter table(headers);

  const std::vector<core::Method> methods{
      core::Method::Hash, core::Method::SlidingHash, core::Method::TwoWayTree,
      core::Method::ReferenceTree, core::Method::DenseAcc, core::Method::Heap};
  for (core::Method m : methods) {
    std::vector<std::string> row{core::method_name(m)};
    for (int t : thread_counts) {
      core::Options opts;
      opts.threads = t;
      row.push_back(bench::cell(bench::time_spkadd(inputs, m, opts, repeats)));
    }
    table.add_row(std::move(row));
    std::cerr << "done: " << core::method_name(m) << "\n";
  }
  table.print(std::cout);
  std::cout << "\n";
}

/// Fig. 3(c)'s workload: the k intermediate products of a distributed
/// SpGEMM — reproduced by squaring a protein-similarity-shaped RMAT
/// surrogate blockwise and keeping the per-stage products.
Inputs spgemm_intermediates(int k, std::int64_t scale_rows) {
  gen::RmatParams p = gen::RmatParams::g500(
      static_cast<int>(util::log2_floor(util::next_pow2(
          static_cast<std::uint64_t>(scale_rows)))),
      static_cast<int>(util::log2_floor(util::next_pow2(
          static_cast<std::uint64_t>(scale_rows)))),
      static_cast<std::uint64_t>(scale_rows) * 48, 77);
  const auto m = gen::rmat_csc(p);
  // k stage products A(:, s-slab) * A(s-slab, :) restricted to one process
  // column, mirroring what one SUMMA process reduces.
  Inputs products;
  const auto bounds = partition_bounds(m.cols(), k);
  spgemm::SpgemmOptions opts;
  for (int s = 0; s < k; ++s) {
    const auto a_blk =
        extract_block(m, 0, m.rows(), bounds[static_cast<std::size_t>(s)],
                      bounds[static_cast<std::size_t>(s) + 1]);
    const auto b_blk =
        extract_block(m, bounds[static_cast<std::size_t>(s)],
                      bounds[static_cast<std::size_t>(s) + 1], 0,
                      std::min<std::int32_t>(m.cols(), 64));
    products.push_back(spgemm::multiply(a_blk, b_blk, opts));
  }
  return products;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_fig3_scaling", "Fig. 3: strong scaling");
  const auto* rows = cli.add_int("rows", 1 << 16, "rows per matrix");
  const auto* k = cli.add_int("k", 32, "number of addends (paper: 128)");
  const auto* repeats = cli.add_int("repeats", 2, "timing repetitions");
  const auto* max_threads =
      cli.add_int("max-threads", 0, "0 = 2 x detected cores");
  if (!cli.parse(argc, argv)) return 1;

  bench::print_header(
      "Fig. 3 — strong scaling of SpKAdd algorithms",
      "paper Fig. 3 (a) ER, (b) RMAT, (c) Eukarya SpGEMM intermediates");

  std::vector<int> thread_counts;
  const int limit = *max_threads > 0
                        ? static_cast<int>(*max_threads)
                        : 2 * util::current_max_threads();
  for (int t = 1; t <= limit; t *= 2) thread_counts.push_back(t);

  {
    gen::WorkloadSpec spec;
    spec.pattern = gen::Pattern::ER;
    spec.rows = *rows;
    spec.cols = 32;
    spec.avg_nnz_per_col = 256;
    spec.k = static_cast<int>(*k);
    const auto inputs = gen::make_workload(spec);
    scaling_case("(a) ER, d=256, k=" + std::to_string(*k), inputs,
                 thread_counts, static_cast<int>(*repeats));
  }
  {
    gen::WorkloadSpec spec;
    spec.pattern = gen::Pattern::RMAT;
    spec.rows = *rows;
    spec.cols = 128;
    spec.avg_nnz_per_col = 128;
    spec.k = static_cast<int>(*k);
    const auto inputs = gen::make_workload(spec);
    scaling_case("(b) RMAT, d=128, k=" + std::to_string(*k), inputs,
                 thread_counts, static_cast<int>(*repeats));
  }
  {
    const auto inputs = spgemm_intermediates(16, 1 << 12);
    scaling_case("(c) SpGEMM intermediates (Eukarya surrogate), k=16", inputs,
                 thread_counts, static_cast<int>(*repeats));
  }
  std::cout << "note: on a single-core container the curves are flat; on a "
               "multicore host k-way methods scale near-linearly while the "
               "dense accumulator (the SPA) degrades (O(T*m) scratch) and "
               "2-way methods saturate.\n";
  return 0;
}
