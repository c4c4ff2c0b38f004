// google-benchmark microbenchmarks of the per-column kernels — the inner
// loops behind every table in the paper. Useful for regression-tracking the
// kernels independently of workload generation.
#include <benchmark/benchmark.h>

#include "core/column_kernels.hpp"
#include "core/workspace.hpp"
#include "gen/workload.hpp"

namespace {

using namespace spkadd;
using Csc = CscMatrix<std::int32_t, double>;

/// Fixture data: k columns with d entries each over a 2^16-row space.
struct ColumnSet {
  std::vector<Csc> matrices;
  std::vector<ColumnView<std::int32_t, double>> views;

  ColumnSet(int k, int d) {
    gen::WorkloadSpec spec;
    spec.rows = 1 << 16;
    spec.cols = 1;
    spec.avg_nnz_per_col = d;
    spec.k = k;
    spec.seed = 12345;
    matrices = gen::make_workload(spec);
    for (const auto& m : matrices)
      if (!m.column(0).empty()) views.push_back(m.column(0));
  }
};

void BM_HashSymbolicColumn(benchmark::State& state) {
  const ColumnSet set(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  core::SymbolicHashWorkspace<std::int32_t> ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::hash_symbolic_column(
        std::span<const ColumnView<std::int32_t, double>>(set.views), ws));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_HashSymbolicColumn)
    ->Args({8, 256})
    ->Args({32, 256})
    ->Args({32, 2048});

void BM_HashAddColumn(benchmark::State& state) {
  const ColumnSet set(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  core::SymbolicHashWorkspace<std::int32_t> sym;
  const std::size_t onz = core::hash_symbolic_column(
      std::span<const ColumnView<std::int32_t, double>>(set.views), sym);
  core::HashWorkspace<std::int32_t, double> ws;
  std::vector<std::int32_t> out_rows(onz);
  std::vector<double> out_vals(onz);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::hash_add_column(
        std::span<const ColumnView<std::int32_t, double>>(set.views), onz, ws,
        out_rows.data(), out_vals.data(), /*sorted_output=*/true));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_HashAddColumn)->Args({8, 256})->Args({32, 256})->Args({32, 2048});

void BM_HeapAddColumn(benchmark::State& state) {
  const ColumnSet set(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  core::HeapWorkspace<std::int32_t> ws;
  std::size_t cap = 0;
  for (const auto& v : set.views) cap += v.nnz();
  std::vector<std::int32_t> out_rows(cap);
  std::vector<double> out_vals(cap);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::heap_add_column(
        std::span<const ColumnView<std::int32_t, double>>(set.views), ws,
        out_rows.data(), out_vals.data()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_HeapAddColumn)->Args({8, 256})->Args({32, 256})->Args({32, 2048});

void BM_Merge2Add(benchmark::State& state) {
  const ColumnSet set(2, static_cast<int>(state.range(0)));
  std::vector<std::int32_t> out_rows(set.views[0].nnz() + set.views[1].nnz());
  std::vector<double> out_vals(out_rows.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::merge2_add(set.views[0], set.views[1],
                                              out_rows.data(),
                                              out_vals.data()));
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_Merge2Add)->Arg(256)->Arg(4096)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
