// Reproduces Fig. 6: computational phases of distributed SpGEMM (simulated
// sparse SUMMA) under the three SpKAdd pipelines — Heap, Sorted Hash,
// Unsorted Hash — plus the per-chunk planner's Hybrid pipeline, for two
// Graph500 R-MAT surrogates standing in for the paper's protein-similarity
// matrices, which are far too large to run here: a larger, sparser one for
// Metaclust50 and one a quarter its dimension at twice the degree for
// Isolates (on half the process grid).
//
// Each pipeline runs under both SUMMA schedules so the streaming rebuild is
// measured against the pre-streaming baseline it replaced:
//   buffered  — all g stage products live per process, one-shot SpKAdd;
//   streaming — stage products fold into a persistent accumulator, at most
//               --window live per process (the §V memory bound).
// `--json <path>` writes the machine-readable samples CI tracks per run.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "gen/rmat.hpp"
#include "summa/sparse_summa.hpp"
#include "util/cli.hpp"

using namespace spkadd;

namespace {

std::string mnnz(std::size_t nnz) {
  return util::TablePrinter::fmt_count(nnz);
}

struct Row {
  std::string name;
  summa::SummaConfig cfg;
};

/// The preset bars of Fig. 6 plus the per-chunk hybrid pipeline, or — when
/// the user names a reduce method on the CLI — just that one pipeline over
/// sorted-hash local multiplies.
std::vector<Row> pipelines(int grid, const std::string& reduce_method) {
  if (!reduce_method.empty()) {
    summa::SummaConfig cfg = summa::sorted_hash_pipeline(grid);
    cfg.reduce_method = core::method_from_name(reduce_method);
    return {{core::method_name(cfg.reduce_method), cfg}};
  }
  return {
      {"Heap", summa::heap_pipeline(grid)},
      {"Sorted Hash", summa::sorted_hash_pipeline(grid)},
      {"Unsorted Hash", summa::unsorted_hash_pipeline(grid)},
      {"Hybrid", summa::hybrid_pipeline(grid)},
  };
}

void run_dataset(const std::string& name,
                 const CscMatrix<std::int32_t, double>& m, int grid,
                 int window, int repeats, const std::vector<Row>& rows,
                 bench::SampleLog& log) {
  std::cout << "### " << name << "  (" << m.rows() << "x" << m.cols()
            << ", nnz=" << util::TablePrinter::fmt_count(m.nnz())
            << ", grid=" << grid << "x" << grid << " => k=" << grid
            << " SUMMA stages, window=" << window << ")\n";
  // Phase columns are *summed over processes* (the quantity Fig. 6 stacks);
  // for the streaming schedule the processes run on concurrent workers, so
  // those sums are busy time, not elapsed time. "wall (s)" is the
  // apples-to-apples elapsed comparison between the two schedules.
  util::TablePrinter table({"Pipeline", "Schedule", "sum multiply (s)",
                            "sum spkadd (s)", "wall (s)", "peak live nnz",
                            "intermediate cf"});
  const std::string shape = "grid=" + std::to_string(grid) +
                            " window=" + std::to_string(window) + " nnz=" +
                            std::to_string(m.nnz());
  for (const auto& r : rows) {
    summa::SummaResult buffered, streaming;
    summa::SummaConfig buffered_cfg = r.cfg;
    buffered_cfg.streaming = false;
    summa::SummaConfig streaming_cfg = r.cfg;
    streaming_cfg.streaming = true;
    streaming_cfg.stream_window = window;

    // A*A: similarity self-join, as in HipMCL's expansion.
    const bench::Timing t_buffered = bench::time_median(
        repeats, [&] { buffered = summa::multiply(m, m, buffered_cfg); });
    const bench::Timing t_streaming = bench::time_median(
        repeats, [&] { streaming = summa::multiply(m, m, streaming_cfg); });
    if (!(streaming.c == buffered.c)) {
      std::cerr << "MISMATCH: streaming C differs from buffered C ("
                << r.name << ")\n";
      std::exit(1);
    }

    for (const auto* run : {&buffered, &streaming}) {
      const bool is_stream = run == &streaming;
      table.add_row(
          {r.name, is_stream ? "streaming" : "buffered",
           util::TablePrinter::fmt_seconds(run->multiply_seconds),
           util::TablePrinter::fmt_seconds(run->spkadd_seconds),
           util::TablePrinter::fmt_seconds(is_stream ? t_streaming.median
                                                     : t_buffered.median),
           mnnz(run->peak_intermediate_nnz),
           util::TablePrinter::fmt_ratio(run->compression_factor)});
    }
    const double footprint_cut =
        streaming.peak_intermediate_nnz == 0
            ? 1.0
            : static_cast<double>(buffered.peak_intermediate_nnz) /
                  static_cast<double>(streaming.peak_intermediate_nnz);
    std::cerr << "done: " << r.name << " — streaming peak live nnz "
              << footprint_cut << "x smaller, wall "
              << (t_streaming.median > 0
                      ? t_buffered.median / t_streaming.median
                      : 0.0)
              << "x the buffered throughput\n";
    log.add(name + "/" + r.name + "/buffered", shape, t_buffered,
            buffered.peak_intermediate_nnz);
    log.add(name + "/" + r.name + "/streaming", shape, t_streaming,
            streaming.peak_intermediate_nnz);
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_fig6_summa",
                      "Fig. 6: SpKAdd inside distributed SpGEMM");
  const auto* scale = cli.add_int("scale", 13, "log2 matrix dimension");
  const auto* degree = cli.add_int("degree", 16, "avg nonzeros per column");
  const auto* grid = cli.add_int("grid", 8, "process grid dimension g (k=g)");
  const auto* window =
      cli.add_int("window", 2, "streaming stage-product window per process");
  const auto* repeats = cli.add_int("repeats", 1, "timing repetitions");
  const auto* reduce = cli.add_string(
      "reduce-method", "",
      "run a single pipeline with this SpKAdd reduce method instead of "
      "the preset trio + hybrid (heap, hash, auto, ...)");
  const auto* json = cli.add_string("json", "", "write JSON samples here");
  if (!cli.parse(argc, argv)) return 1;
  // Validate the method name now: the datasets below take minutes at
  // large --scale, and a typo should fail in milliseconds instead.
  try {
    if (!reduce->empty()) (void)core::method_from_name(*reduce);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_fig6_summa: " << e.what() << "\n";
    return 1;
  }

  bench::print_header(
      "Fig. 6 — effect of SpKAdd on distributed SpGEMM (simulated SUMMA)",
      "paper Fig. 6 (Cori KNL, communication excluded): hash SpKAdd should "
      "cut the reduction cost by ~an order of magnitude vs heap, the "
      "unsorted-hash pipeline should also shave the local multiply, and the "
      "streaming schedule should hold peak live intermediates to ~window/g "
      "of the buffered baseline at comparable throughput");

  bench::SampleLog log("bench_fig6_summa");

  // Metaclust50 surrogate: larger, sparser, strongly skewed.
  try {
    auto p = gen::RmatParams::g500(
        static_cast<int>(*scale), static_cast<int>(*scale),
        (1ull << *scale) * static_cast<std::uint64_t>(*degree), 61);
    run_dataset("Metaclust50 surrogate", gen::rmat_csc(p),
                static_cast<int>(*grid), static_cast<int>(*window),
                static_cast<int>(*repeats),
                pipelines(static_cast<int>(*grid), *reduce), log);
    // Isolates surrogate: smaller and denser.
    auto q = gen::RmatParams::g500(
        static_cast<int>(*scale) - 2, static_cast<int>(*scale) - 2,
        (1ull << (*scale - 2)) * static_cast<std::uint64_t>(*degree) * 2, 62);
    const int half_grid = std::max(1, static_cast<int>(*grid) / 2);
    run_dataset("Isolates surrogate", gen::rmat_csc(q), half_grid,
                static_cast<int>(*window), static_cast<int>(*repeats),
                pipelines(half_grid, *reduce), log);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_fig6_summa: " << e.what() << "\n";
    return 1;
  }

  if (!json->empty() && !log.write(*json)) return 1;
  return 0;
}
