// Streaming accumulator vs one-shot SpKAdd (the §V memory/time trade-off):
// for k addends arriving as a stream, compare
//   * one-shot  — materialize all k inputs, one spkadd() call (peak memory
//     holds every addend plus the output);
//   * streaming — core::Accumulator with a batch capacity, which folds
//     borrowed addends into a running sum (peak intermediate memory is one
//     batch plus the running sum plus persistent scratch).
// Reports throughput (summed input nonzeros per second through the
// reducer) and the peak-intermediate footprint of each strategy, for
// k in {64, 256} (…512 with --full) on ER and RMAT streams, plus the
// schedule sweep (dynamic vs nnz-balanced) on the skewed RMAT case.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/accumulator.hpp"
#include "gen/workload.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace spkadd;
using Csc = CscMatrix<std::int32_t, double>;

namespace {

std::size_t inputs_bytes(const std::vector<Csc>& inputs) {
  std::size_t b = 0;
  for (const auto& m : inputs) b += m.storage_bytes();
  return b;
}

std::string mib(std::size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return std::string(buf) + " MiB";
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_streaming",
                      "streaming accumulator vs one-shot SpKAdd (§V)");
  const auto* rows = cli.add_int("rows", 1 << 15, "rows per matrix (m)");
  const auto* cols = cli.add_int("cols", 64, "cols per matrix (n)");
  const auto* d = cli.add_int("d", 8, "avg nonzeros per column per addend");
  const auto* batch = cli.add_int("batch", 8, "accumulator batch capacity");
  const auto* repeats = cli.add_int("repeats", 3, "timing repetitions");
  const auto* full = cli.add_flag("full", "also run k=512 (slow)");
  const auto* method_flag = cli.add_string(
      "method", "auto", "SpKAdd method (auto, hash, dense, ...)");
  const auto* schedule_flag = cli.add_string(
      "schedule", "dynamic", "column schedule (dynamic|static|nnz-balanced)");
  const auto* json = cli.add_string("json", "", "write JSON samples here");
  if (!cli.parse(argc, argv)) return 1;

  core::Options base_opts;
  try {
    // Central parsers (core/method.cpp) — no per-bench string->enum maps.
    base_opts.method = core::method_from_name(*method_flag);
    base_opts.schedule = core::schedule_from_name(*schedule_flag);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_streaming: " << e.what() << "\n";
    return 1;
  }

  bench::SampleLog log("bench_streaming");
  const std::string shape = "rows=" + std::to_string(*rows) +
                            " cols=" + std::to_string(*cols) +
                            " d=" + std::to_string(*d) +
                            " batch=" + std::to_string(*batch);

  bench::print_header(
      "Streaming accumulator vs one-shot SpKAdd",
      "paper §V batched extension as a production streaming reducer");

  std::vector<int> ks{64, 256};
  if (*full) ks.push_back(512);

  util::TablePrinter table({"pattern", "k", "strategy", "Gnnz/s",
                            "peak intermediates", "result nnz",
                            "chunks h/H/W/D"});
  for (const gen::Pattern pattern : {gen::Pattern::ER, gen::Pattern::RMAT}) {
    for (const int k : ks) {
      gen::WorkloadSpec spec;
      spec.pattern = pattern;
      spec.rows = *rows;
      spec.cols = *cols;
      spec.avg_nnz_per_col = *d;
      spec.k = k;
      spec.seed = 7000 + static_cast<std::uint64_t>(k);
      const auto inputs = gen::make_workload(spec);
      const std::size_t in_nnz = gen::total_input_nnz(inputs);
      const char* pname = pattern == gen::Pattern::ER ? "ER" : "RMAT";
      std::cerr << "generated " << spec.describe() << "\n";

      core::Options opts = base_opts;

      // One-shot: all k inputs live at once, single reduction. An untimed
      // warm-up call first, so the first measured lap does not pay for
      // the OpenMP team start and first-touch page faults. One extra
      // counted run surfaces the per-chunk kernel mix
      // (heap/hash/sliding/dense) without polluting the timed laps.
      Csc one_shot = core::spkadd(inputs, opts);
      const double t_one = bench::time_median(static_cast<int>(*repeats), [&] {
        one_shot = core::spkadd(inputs, opts);
      });
      std::string mix = "-";
      if (opts.method == core::Method::Auto) {
        core::OpCounters counters;
        core::Options copts = opts;
        copts.counters = &counters;
        (void)core::spkadd(inputs, copts);
        mix = counters.chunk_mix();
      }
      table.add_row({pname, std::to_string(k), "one-shot",
                     bench::gnnz_per_s(in_nnz, t_one),
                     mib(inputs_bytes(inputs) + one_shot.storage_bytes()),
                     std::to_string(one_shot.nnz()), mix});
      log.add(std::string(pname) + "/k=" + std::to_string(k) + "/one-shot",
              shape, t_one, in_nnz);

      // Streaming: borrowed addends folded every `batch`; the accumulator
      // tracks its own peak intermediate footprint (running sum + owned
      // addends + persistent scratch).
      core::Accumulator<> acc(one_shot.rows(), one_shot.cols(), opts,
                              static_cast<std::size_t>(*batch));
      for (const auto& m : inputs) acc.add(m);
      Csc streamed = acc.finalize();  // untimed warm-up pass
      const double t_stream =
          bench::time_median(static_cast<int>(*repeats), [&] {
            for (const auto& m : inputs) acc.add(m);
            streamed = acc.finalize();
          });
      table.add_row({pname, std::to_string(k), "accumulator",
                     bench::gnnz_per_s(in_nnz, t_stream),
                     mib(acc.stats().peak_intermediate_bytes),
                     std::to_string(streamed.nnz()), "-"});
      log.add(std::string(pname) + "/k=" + std::to_string(k) +
                  "/accumulator",
              shape, t_stream, acc.stats().peak_staged_nnz);
      // Every fold is a strict left fold, so streaming must reproduce the
      // one-shot sum bit for bit, not just its structure.
      if (!(streamed == one_shot)) {
        std::cerr << "MISMATCH: streaming result disagrees with one-shot\n";
        return 1;
      }
    }
  }
  table.print(std::cout);

  // Schedule sweep on the most skewed stream: dynamic vs nnz-balanced.
  {
    gen::WorkloadSpec spec;
    spec.pattern = gen::Pattern::RMAT;
    spec.rows = *rows;
    spec.cols = *cols;
    spec.avg_nnz_per_col = *d;
    spec.k = 64;
    spec.seed = 9001;
    const auto inputs = gen::make_workload(spec);
    const std::size_t in_nnz = gen::total_input_nnz(inputs);
    util::TablePrinter sched({"schedule", "Gnnz/s"});
    for (const core::Schedule s :
         {core::Schedule::Dynamic, core::Schedule::NnzBalanced}) {
      core::Options opts;
      opts.method = base_opts.method;
      opts.schedule = s;
      const double t = bench::time_median(static_cast<int>(*repeats), [&] {
        (void)core::spkadd(inputs, opts);
      });
      sched.add_row({core::schedule_name(s), bench::gnnz_per_s(in_nnz, t)});
      log.add("RMAT/k=64/schedule=" + core::schedule_name(s), shape, t,
              in_nnz);
    }
    std::cout << "\nRMAT k=64 schedule sweep:\n";
    sched.print(std::cout);
  }

  std::cout << "\nexpected shape: accumulator throughput within a small "
               "factor of one-shot (it re-streams the running sum once per "
               "batch) at a fraction of the peak intermediate footprint; "
               "nnz-balanced meets or beats dynamic on skewed columns.\n";
  if (!json->empty() && !log.write(*json)) return 1;
  return 0;
}
