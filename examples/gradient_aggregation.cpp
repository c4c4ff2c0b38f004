// Sparse gradient aggregation (the paper's "sparse allreduce" motivation,
// §I): k workers each hold a top-s sparsified gradient for a weight matrix;
// the server reduces them into one update. With mini-batching each worker's
// contribution is a sparse *matrix*, so the reduction is exactly SpKAdd —
// and because contributions *arrive as a stream*, the server folds them
// through the §V streaming accumulator: each gradient is staged by borrowed
// pointer (zero copies; acc.add(std::move(g)) would take ownership instead)
// and folded into the running update at least every --batch arrivals.
//
//   ./examples/gradient_aggregation [--workers 32] [--rows 65536]
#include <iostream>
#include <vector>

#include "core/accumulator.hpp"
#include "core/spkadd.hpp"
#include "matrix/coo.hpp"
#include "matrix/validate.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  spkadd::util::CliParser cli("gradient_aggregation",
                              "sparse allreduce-style gradient reduction");
  const auto* workers = cli.add_int("workers", 32, "number of workers (k)");
  const auto* rows = cli.add_int("rows", 1 << 16, "weight matrix rows");
  const auto* cols = cli.add_int("cols", 64, "weight matrix cols");
  const auto* batch =
      cli.add_int("batch", 8, "accumulator batch capacity (folded per round)");
  const auto* density =
      cli.add_double("density", 0.001, "fraction of entries each worker keeps");
  if (!cli.parse(argc, argv)) return 1;

  using Csc = spkadd::CscMatrix<std::int32_t, double>;

  // Each worker sparsifies its dense gradient to the top entries; model the
  // surviving coordinates as uniform random (magnitude-based selection has
  // no structure the reducer can exploit anyway).
  const auto per_worker = static_cast<std::size_t>(
      *density * static_cast<double>(*rows) * static_cast<double>(*cols));
  auto make_gradient = [&](int w) {
    spkadd::util::Xoshiro256 root(2024);
    auto rng = root.split(static_cast<std::uint64_t>(w));
    spkadd::CooMatrix<std::int32_t, double> g(
        static_cast<std::int32_t>(*rows), static_cast<std::int32_t>(*cols));
    g.reserve(per_worker);
    for (std::size_t i = 0; i < per_worker; ++i) {
      const auto r = static_cast<std::int32_t>(
          rng.bounded(static_cast<std::uint64_t>(*rows)));
      const auto c = static_cast<std::int32_t>(
          rng.bounded(static_cast<std::uint64_t>(*cols)));
      g.push(r, c, 2.0 * rng.uniform() - 1.0);  // gradient value in (-1, 1)
    }
    g.compress();
    return g.to_csc();
  };
  std::cout << *workers << " workers, " << per_worker
            << " sparsified entries each\n";

  // Materialize the arrivals up front so both reducers below time the
  // reduction alone, over identical inputs.
  std::vector<Csc> gradients;
  for (int w = 0; w < *workers; ++w) gradients.push_back(make_gradient(w));

  // Stream the reduction: each gradient is staged as a borrowed pointer
  // (zero copies) and folded at least every --batch arrivals; `gradients`
  // outlives finalize(), as a borrowed addend must. The aggregated update
  // needs no sorted columns (it is applied element-wise), so the hash
  // reducer can skip its output sort — the same trick the paper's
  // "unsorted hash" SUMMA pipeline uses.
  spkadd::core::Options opts;
  opts.method = spkadd::core::Method::Hash;
  opts.sorted_output = false;
  spkadd::core::Accumulator<> server(
      static_cast<std::int32_t>(*rows), static_cast<std::int32_t>(*cols),
      opts, static_cast<std::size_t>(*batch));
  spkadd::util::WallTimer timer;
  for (const Csc& g : gradients) server.add(g);
  Csc update = server.finalize();
  const double stream_time = timer.seconds();
  std::cout << "peak intermediate footprint: "
            << static_cast<double>(server.stats().peak_intermediate_bytes) /
                   (1024.0 * 1024.0)
            << " MiB over " << server.stats().flushes << " folds\n";

  // Compare with the naive fold (what a framework calling a library
  // pairwise-add k-1 times does) — which needs every gradient at once.
  timer.reset();
  opts.method = spkadd::core::Method::ReferenceIncremental;
  opts.sorted_output = true;
  const Csc update2 = spkadd::core::spkadd(gradients, opts);
  const double naive_time = timer.seconds();

  std::cout << "aggregated update: " << update.nnz() << " nonzeros ("
            << static_cast<double>(update.nnz()) /
                   (static_cast<double>(*rows) * static_cast<double>(*cols)) *
                   100
            << "% dense)\n";
  std::cout << "streamed hash SpKAdd:   " << stream_time << " s\n";
  std::cout << "incremental 2-way fold: " << naive_time << " s  ("
            << naive_time / stream_time << "x slower)\n";

  // Sanity: both reductions hold the same values.
  auto canonical = update;
  canonical.sort_columns();
  const bool agree = spkadd::approx_equal(canonical, update2, 1e-9);
  std::cout << "reductions agree: " << (agree ? "yes" : "NO") << "\n";
  return agree ? 0 : 1;
}
