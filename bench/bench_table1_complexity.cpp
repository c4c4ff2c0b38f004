// Reproduces Table I empirically: measures the Work (data-structure
// operations) and I/O (streamed bytes) of every algorithm while sweeping k
// on ER inputs, and reports the observed growth exponents against the
// analytic ones — O(k^2 nd) for 2-way incremental, O(k nd lg k) for tree and
// heap, O(k nd) for the SPA (DenseAcc), hash and sliding hash.
#include <cmath>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "gen/workload.hpp"
#include "util/cli.hpp"

using namespace spkadd;

namespace {

core::OpCounters measure(const std::vector<CscMatrix<std::int32_t, double>>&
                             inputs,
                         core::Method method) {
  core::OpCounters c;
  core::Options opts;
  opts.method = method;
  opts.counters = &c;
  auto out = core::spkadd(inputs, opts);
  static std::size_t sink = 0;
  sink += out.nnz();
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_table1_complexity",
                      "Table I: measured work/I-O vs analytic complexity");
  const auto* rows = cli.add_int("rows", 1 << 14, "rows per matrix");
  const auto* cols = cli.add_int("cols", 64, "cols per matrix");
  const auto* d = cli.add_int("d", 16, "avg nonzeros per column");
  if (!cli.parse(argc, argv)) return 1;

  bench::print_header(
      "Table I — measured operation counts vs analytic complexity",
      "paper Table I (work and I/O columns, ER inputs). The 'k-exponent' "
      "column fits work ~ k^e between k=4 and k=32: expect e~2 for 2-way "
      "incremental, e in (1, 1.5) for tree/heap (the lg k factor), e~1 for "
      "the SPA (DenseAcc), hash and sliding hash.");

  const std::vector<int> ks{4, 8, 16, 32};
  std::vector<std::vector<CscMatrix<std::int32_t, double>>> workloads;
  for (int k : ks) {
    gen::WorkloadSpec spec;
    spec.pattern = gen::Pattern::ER;
    spec.rows = *rows;
    spec.cols = *cols;
    spec.avg_nnz_per_col = *d;
    spec.k = k;
    spec.seed = 6000 + static_cast<std::uint64_t>(k);
    workloads.push_back(gen::make_workload(spec));
  }

  std::vector<std::string> headers{"Algorithm"};
  for (int k : ks) headers.push_back("work k=" + std::to_string(k));
  headers.push_back("k-exponent");
  headers.push_back("bytes moved (k=32)");
  util::TablePrinter table(headers);

  const std::vector<core::Method> methods{
      core::Method::TwoWayIncremental, core::Method::TwoWayTree,
      core::Method::Heap,              core::Method::DenseAcc,
      core::Method::Hash,              core::Method::SlidingHash};
  for (core::Method m : methods) {
    std::vector<std::string> row{core::method_name(m)};
    std::vector<double> work_per_k;
    std::uint64_t bytes_last = 0;
    for (std::size_t i = 0; i < ks.size(); ++i) {
      const auto c = measure(workloads[i], m);
      work_per_k.push_back(static_cast<double>(c.work()));
      bytes_last = c.bytes_moved;
      row.push_back(util::TablePrinter::fmt_count(c.work()));
    }
    // Normalize by input volume (which itself grows linearly with k) to
    // isolate the extra k-dependence, then fit the exponent: the analytic
    // work for ER is  c * k^e * n * d  with e the Table I exponent.
    const double e = std::log(work_per_k.back() / work_per_k.front()) /
                     std::log(static_cast<double>(ks.back()) /
                              static_cast<double>(ks.front()));
    std::ostringstream es;
    es.precision(2);
    es << std::fixed << e;
    row.push_back(es.str());
    row.push_back(util::TablePrinter::fmt_count(bytes_last));
    table.add_row(std::move(row));
    std::cerr << "done: " << core::method_name(m) << "\n";
  }
  table.print(std::cout);
  return 0;
}
