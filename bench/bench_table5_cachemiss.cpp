// Reproduces Table V: cache misses of hash vs sliding hash for the four
// Fig. 4 cases, measured on the trace-driven cache simulator (the paper
// used Cachegrind; see DESIGN.md for the substitution argument). With a
// multi-level --cache-spec the table reports per-level (L1/L2/LLC) miss
// columns — the Table V number is the last (LLC) column; the inner levels
// show where the sliding partition's reuse actually lands. The columns are
// the levels one simulated thread sees: the LLC is divided by --threads,
// and a private level at least as large as that share is not simulated.
#include <iostream>
#include <stdexcept>

#include "bench_common.hpp"
#include "cachesim/traced_spkadd.hpp"
#include "gen/workload.hpp"
#include "util/cli.hpp"

using namespace spkadd;

int main(int argc, char** argv) {
  util::CliParser cli("bench_table5_cachemiss",
                      "Table V: simulated cache misses, hash vs sliding");
  const auto* scale = cli.add_int("scale", 14, "log2 rows of the big cases");
  const auto* cache_spec = cli.add_string(
      "cache-spec", "LLC:8M:16",
      "modeled hierarchy, e.g. L1:32K:8,L2:1M:16,LLC:8M:16; the default "
      "single 8MB level is small enough that the scaled-down workloads "
      "overflow it the way the paper's 4M-row ones overflowed 32MB");
  const auto* threads =
      cli.add_int("threads", 48, "modeled threads sharing the LLC (paper: 48)");
  if (!cli.parse(argc, argv)) return 1;

  cachesim::HierarchySpec hier;
  try {
    hier = cachesim::HierarchySpec::from_cli_spec(*cache_spec);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_table5_cachemiss: bad --cache-spec: " << e.what()
              << "\n";
    return 1;
  }

  bench::print_header("Table V — cache misses (simulated)",
                      "paper Table V: sliding hash should miss far less than "
                      "plain hash in cases (b)/(c) and be a wash in (a)/(d)");
  std::cout << "hierarchy: " << hier.to_string() << "\n\n";

  struct Case {
    std::string name;
    gen::Pattern pattern;
    std::int64_t rows, cols, d;
    int k;
  };
  const std::int64_t big = 1ll << *scale;
  const std::vector<Case> cases{
      {"(a) ER small", gen::Pattern::ER, big / 4, 32, 64, 32},
      {"(b) ER dense", gen::Pattern::ER, big, 8, 2048, 32},
      {"(c) RMAT", gen::Pattern::RMAT, big, 32, 512, 32},
      {"(d) high-cf RMAT", gen::Pattern::RMAT, big / 16, 16, 256, 64},
  };

  struct Traced {
    cachesim::TraceResult sliding, plain;
  };
  std::vector<Traced> traced;
  for (const auto& c : cases) {
    gen::WorkloadSpec spec;
    spec.pattern = c.pattern;
    spec.rows = c.rows;
    spec.cols = c.cols;
    spec.avg_nnz_per_col = c.d;
    spec.k = c.k;
    spec.seed = 5000;
    const auto inputs = gen::make_workload(spec);

    cachesim::TraceConfig cfg;
    cfg.hierarchy = hier;
    cfg.threads = static_cast<int>(*threads);
    cfg.sliding = false;
    const auto plain = cachesim::trace_spkadd(
        std::span<const CscMatrix<std::int32_t, double>>(inputs), cfg);
    cfg.sliding = true;
    const auto sliding = cachesim::trace_spkadd(
        std::span<const CscMatrix<std::int32_t, double>>(inputs), cfg);
    traced.push_back({sliding, plain});
    std::cerr << "done: " << c.name << "\n";
  }

  // One miss column per simulated level per kernel, LLC last — that final
  // pair is the Table V comparison.
  const std::vector<std::string>& levels = traced.front().plain.level_names;
  std::vector<std::string> head{"Case"};
  for (const auto& l : levels) head.push_back("sliding " + l);
  for (const auto& l : levels) head.push_back("hash " + l);
  head.push_back("sliding/hash (" + levels.back() + ")");
  util::TablePrinter table(head);
  const std::size_t last = levels.size() - 1;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const cachesim::TraceResult& sliding = traced[ci].sliding;
    const cachesim::TraceResult& plain = traced[ci].plain;
    const double ratio =
        plain.level_misses(last) == 0
            ? 1.0
            : static_cast<double>(sliding.level_misses(last)) /
                  static_cast<double>(plain.level_misses(last));
    std::vector<std::string> row{cases[ci].name};
    for (std::size_t i = 0; i < levels.size(); ++i)
      row.push_back(util::TablePrinter::fmt_count(sliding.level_misses(i)));
    for (std::size_t i = 0; i < levels.size(); ++i)
      row.push_back(util::TablePrinter::fmt_count(plain.level_misses(i)));
    row.push_back(util::TablePrinter::fmt_ratio(ratio));
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\npaper reference (Skylake, Cachegrind): (a) 1.8M vs 1.4M, "
               "(b) 214M vs 734M, (c) 344M vs 409M, (d) 150M vs 152M — the "
               "reproduction target is LLC ratio < 1 for (b)/(c), ~1 for "
               "(a)/(d).\n";
  return 0;
}
