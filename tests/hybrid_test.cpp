// The per-chunk planner behind Method::Auto:
// classification of the per-chunk Fig. 2 surface, bit-identity of the
// mixed-kernel result to every single-kernel method and the reference
// folds, and the chunk counters/consumer integrations (accumulator,
// SUMMA).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/accumulator.hpp"
#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "matrix/validate.hpp"
#include "summa/sparse_summa.hpp"
#include "test_helpers.hpp"

namespace {

using namespace spkadd;
using namespace spkadd::core;
using spkadd::testing::canonicalized;
using spkadd::testing::dense_sum_oracle;
using spkadd::testing::random_collection;

using Csc = spkadd::testing::Csc;
using Coo = spkadd::testing::Coo;

/// k addends with one dense hub column (col 0, ~rows/2 entries each) among
/// sparse ones — the workload whole-matrix dispatch handles worst.
std::vector<Csc> hub_collection(int k, std::int32_t rows, std::int32_t cols,
                                std::uint64_t seed) {
  std::vector<Csc> out;
  for (int i = 0; i < k; ++i) {
    Coo coo(rows, cols);
    for (std::int32_t r = (i % 2); r < rows; r += 2)
      coo.push(r, 0, 1.0 + static_cast<double>(r % 5));
    util::Xoshiro256 rng(seed + static_cast<std::uint64_t>(i));
    for (std::int32_t j = 1; j < cols; ++j)
      for (int t = 0; t < 4; ++t)
        coo.push(static_cast<std::int32_t>(
                     rng.bounded(static_cast<std::uint64_t>(rows))),
                 j, 1.0 - rng.uniform());
    coo.compress();
    out.push_back(coo.to_csc());
  }
  return out;
}

void quantize(std::vector<Csc>& inputs) {
  for (auto& m : inputs)
    for (auto& v : m.mutable_values()) v = std::round(v * 8.0);
}

/// The per-chunk plan the planner builds for `inputs` under `opts`.
ColumnPlan<std::int32_t> plan_for(const std::vector<Csc>& inputs,
                                  const Options& opts) {
  std::vector<const Csc*> ptrs;
  core::detail::borrow_all(std::span<const Csc>(inputs), ptrs);
  std::vector<std::uint64_t> costs;
  core::detail::column_input_nnz(MatrixPtrs<std::int32_t, double>(ptrs),
                                 opts, costs);
  ColumnPlan<std::int32_t> plan;
  plan_hybrid<std::int32_t, double>(costs, inputs[0].rows(), inputs.size(),
                                    opts, plan);
  return plan;
}

// ---------------------------------------------------------------------------
// Classification (hybrid_kernel_for / plan_hybrid)
// ---------------------------------------------------------------------------

TEST(HybridClassify, EmptyChunkIsAHashNoop) {
  EXPECT_EQ(hybrid_kernel_for<std::int32_t>(0, 16, 1 << 20, true, 100, 0),
            ColumnKernel::Hash);
}

TEST(HybridClassify, CacheOverflowPicksSliding) {
  EXPECT_EQ(hybrid_kernel_for<std::int32_t>(101, 16, 1 << 20, true, 100, 0),
            ColumnKernel::SlidingHash);
  // Boundary: exactly fitting stays off sliding (b*T*max > M is strict).
  EXPECT_NE(hybrid_kernel_for<std::int32_t>(100, 16, 1 << 20, true, 100, 0),
            ColumnKernel::SlidingHash);
}

TEST(HybridClassify, SparseChunkOffEveryCornerPicksHash) {
  // Not dense (no resident dense arrays), tables fit, k above the heap
  // corner: plain hash. The SPA is never a planner candidate.
  EXPECT_EQ(hybrid_kernel_for<std::int32_t>(256, 16, 1024, true, 1 << 20, 0),
            ColumnKernel::Hash);
  EXPECT_EQ(hybrid_kernel_for<std::int32_t>(256, 16, 1025, true, 1 << 20, 0),
            ColumnKernel::Hash);
}

TEST(HybridClassify, TinyKSortedSparseChunkPicksHeap) {
  EXPECT_EQ(hybrid_kernel_for<std::int32_t>(kHybridHeapMaxColNnz,
                                            kHybridHeapMaxK, 1 << 20, true,
                                            1 << 20, 0),
            ColumnKernel::Heap);
  // k above the corner, nnz above the corner, or unsorted inputs -> hash.
  EXPECT_EQ(hybrid_kernel_for<std::int32_t>(64, kHybridHeapMaxK + 1, 1 << 20,
                                            true, 1 << 20, 0),
            ColumnKernel::Hash);
  EXPECT_EQ(hybrid_kernel_for<std::int32_t>(kHybridHeapMaxColNnz + 1,
                                            kHybridHeapMaxK, 1 << 20, true,
                                            1 << 20, 0),
            ColumnKernel::Hash);
  EXPECT_EQ(hybrid_kernel_for<std::int32_t>(64, kHybridHeapMaxK, 1 << 20,
                                            false, 1 << 20, 0),
            ColumnKernel::Hash);
}

TEST(HybridClassify, DenseChunkPicksDenseAccBeforeSliding) {
  // A hub chunk whose *input* nnz overflows the LLC but whose rows fit
  // the dense arrays goes dense, not sliding: dense storage is bounded by
  // rows, so the overflow test on input nnz is moot.
  EXPECT_EQ(hybrid_kernel_for<std::int32_t>(4096, 16, 1024, true, 100, 2048),
            ColumnKernel::DenseAcc);
  // The fill gate: a heaviest column of rows/kHybridDenseMinFillDivisor
  // input nnz is dense, one entry less is not.
  constexpr std::int32_t rows = 1 << 20;
  constexpr std::uint64_t gate = rows / kHybridDenseMinFillDivisor;
  EXPECT_EQ(hybrid_kernel_for<std::int32_t>(gate, 16, rows, true, 1 << 30,
                                            1 << 30),
            ColumnKernel::DenseAcc);
  EXPECT_NE(hybrid_kernel_for<std::int32_t>(gate - 1, 16, rows, true,
                                            1 << 30, 1 << 30),
            ColumnKernel::DenseAcc);
  // Rows past the dense budget: falls through to the sliding test.
  EXPECT_EQ(hybrid_kernel_for<std::int32_t>(4096, 16, 4096, true, 100, 1024),
            ColumnKernel::SlidingHash);
}

TEST(HybridPlanTest, ChunksPartitionTheColumns) {
  std::vector<std::uint64_t> costs(64, 10);
  costs[7] = 100000;  // hub
  Options opts;
  opts.threads = 3;
  ColumnPlan<std::int32_t> plan;
  plan_hybrid<std::int32_t, double>(costs, 1 << 20, 16, opts, plan);
  ASSERT_EQ(plan.chunks.size(), plan.kernels.size());
  ASSERT_FALSE(plan.chunks.empty());
  std::int32_t next = 0;
  for (const auto& [c0, c1] : plan.chunks) {
    EXPECT_EQ(c0, next);
    EXPECT_LT(c0, c1);
    next = c1;
  }
  EXPECT_EQ(next, 64);
}

TEST(HybridPlanTest, DenseHubChunkSlidesWhileSparseChunksDoNot) {
  // 16 columns: col 0 carries 16384, the rest 32 each. With threads=2 and
  // llc pinned so fit = 1000 entries, the hub chunk must slide and every
  // sparse chunk must stay on a cache-resident kernel.
  std::vector<std::uint64_t> costs(16, 32);
  costs[0] = 16384;
  Options opts;
  opts.threads = 2;
  opts.llc_bytes = (sizeof(std::int32_t) + sizeof(double)) * 2 * 1000;
  ColumnPlan<std::int32_t> plan;
  plan_hybrid<std::int32_t, double>(costs, 4096, 8, opts, plan);
  ASSERT_GE(plan.size(), 2u);
  EXPECT_EQ(plan.kernels.front(), ColumnKernel::SlidingHash);
  for (std::size_t i = 1; i < plan.kernels.size(); ++i)
    EXPECT_NE(plan.kernels[i], ColumnKernel::SlidingHash) << i;
}

// ---------------------------------------------------------------------------
// Bit-identity of the mixed-kernel result
// ---------------------------------------------------------------------------

TEST(HybridBitIdentity, MatchesEverySingleKernelMethodOnGrids) {
  // Every column kernel accumulates equal-row values strictly left to
  // right, so the planner's per-chunk mix must reproduce each
  // single-kernel method bit for bit — raw FP values, no quantization.
  // The planner runs through kway_add with no kernel, so k=2 is planned
  // too: spkadd sends a sorted pair to the 2-way tree, but the
  // Accumulator plans one whenever it masks its dense-resident columns.
  for (const gen::Pattern p : {gen::Pattern::ER, gen::Pattern::RMAT}) {
    for (const int k : {2, 8, 16}) {
      for (const int d : {2, 32}) {
        gen::WorkloadSpec spec;
        spec.pattern = p;
        spec.rows = 512;
        spec.cols = 16;
        spec.avg_nnz_per_col = d;
        spec.k = k;
        spec.seed = 500 + static_cast<std::uint64_t>(k) * 17 +
                    static_cast<std::uint64_t>(d);
        const auto inputs = gen::make_workload(spec);
        std::vector<const Csc*> ptrs;
        core::detail::borrow_all(std::span<const Csc>(inputs), ptrs);
        Runtime<std::int32_t, double> rt;
        const Csc hybrid = kway_add(MatrixPtrs<std::int32_t, double>(ptrs),
                                    Options{}, std::nullopt, rt);
        EXPECT_TRUE(hybrid == core::spkadd(inputs)) << "Auto k=" << k;
        for (const Method m : {Method::Heap, Method::Hash,
                               Method::SlidingHash, Method::DenseAcc}) {
          Options opts;
          opts.method = m;
          EXPECT_TRUE(hybrid == core::spkadd(inputs, opts))
              << method_name(m) << " k=" << k << " d=" << d;
        }
      }
    }
  }
}

TEST(HybridBitIdentity, MatchesReferenceFoldsOnQuantizedValues) {
  // The reference/tree folds associate differently, so bit-identity to
  // them is checked where addition is exact (integer-quantized values) —
  // the same contract the sharded service pins.
  for (const gen::Pattern p : {gen::Pattern::ER, gen::Pattern::RMAT}) {
    gen::WorkloadSpec spec;
    spec.pattern = p;
    spec.rows = 512;
    spec.cols = 16;
    spec.avg_nnz_per_col = 8;
    spec.k = 8;
    spec.seed = 611;
    auto inputs = gen::make_workload(spec);
    quantize(inputs);
    Options hopts;
    hopts.method = Method::Auto;
    const Csc hybrid = core::spkadd(inputs, hopts);
    for (const Method m :
         {Method::ReferenceTree, Method::ReferenceIncremental,
          Method::TwoWayTree, Method::TwoWayIncremental}) {
      Options opts;
      opts.method = m;
      EXPECT_TRUE(hybrid == core::spkadd(inputs, opts)) << method_name(m);
    }
  }
}

TEST(HybridBitIdentity, AllEmptyColumns) {
  std::vector<Csc> empties;
  for (int i = 0; i < 4; ++i) empties.emplace_back(64, 8);
  Options opts;
  opts.method = Method::Auto;
  const Csc out = core::spkadd(empties, opts);
  EXPECT_EQ(out.nnz(), 0u);
  Options hash_opts;
  hash_opts.method = Method::Hash;
  EXPECT_TRUE(out == core::spkadd(empties, hash_opts));
}

TEST(HybridBitIdentity, DenseHubAmongSparseMixesKernels) {
  const auto inputs = hub_collection(8, 4096, 16, 77);
  Options opts;
  opts.method = Method::Auto;
  opts.threads = 2;
  // fit = 1000 entries: the hub column (8 * ~2048 input nnz) overflows,
  // the sparse columns do not.
  opts.llc_bytes = (sizeof(std::int32_t) + sizeof(double)) * 2 * 1000;
  OpCounters counters;
  opts.counters = &counters;
  const Csc hybrid = core::spkadd(inputs, opts);

  EXPECT_GE(counters.chunks_sliding, 1u);
  EXPECT_GE(counters.chunks_total() - counters.chunks_sliding, 1u)
      << "sparse chunks should not be dragged onto sliding hash";

  Options hash_opts;
  hash_opts.method = Method::Hash;
  EXPECT_TRUE(hybrid == core::spkadd(inputs, hash_opts));
  EXPECT_TRUE(approx_equal(
      dense_sum_oracle(std::span<const Csc>(inputs)), hybrid));
}

TEST(HybridBitIdentity, DenseHubChunkDispatchesDenseAcc) {
  // Same hub workload, but with rows inside the dense budget: the hub
  // chunk must dispatch to DenseAcc (not sliding) and stay bit-identical
  // to a plain hash run.
  const auto inputs = hub_collection(8, 1024, 16, 177);
  Options opts;
  opts.method = Method::Auto;
  opts.threads = 2;
  // dense_fit = llc / ((8+1)*2) = 2048 rows >= 1024; the hub column's
  // ~4096 summed input nnz would overflow the sliding fit of 1536.
  opts.llc_bytes = (sizeof(double) + 1) * 2 * 2048;
  OpCounters counters;
  opts.counters = &counters;
  const Csc hybrid = core::spkadd(inputs, opts);

  EXPECT_GE(counters.chunks_dense, 1u)
      << "mix " << counters.chunk_mix();
  Options hash_opts;
  hash_opts.method = Method::Hash;
  EXPECT_TRUE(hybrid == core::spkadd(inputs, hash_opts));
  EXPECT_TRUE(approx_equal(
      dense_sum_oracle(std::span<const Csc>(inputs)), hybrid));
}

TEST(HybridBitIdentity, IdenticalAcrossSchedules) {
  const auto inputs = random_collection(12, 512, 16, 600, 21);
  Csc results[3];
  int i = 0;
  for (const Schedule s :
       {Schedule::Dynamic, Schedule::Static, Schedule::NnzBalanced}) {
    Options opts;
    opts.method = Method::Auto;
    opts.schedule = s;
    results[i++] = core::spkadd(inputs, opts);
  }
  EXPECT_TRUE(results[0] == results[1]);
  EXPECT_TRUE(results[0] == results[2]);
}

TEST(HybridBitIdentity, UnsortedOutputCanonicalizesToSorted) {
  const auto inputs = random_collection(8, 512, 16, 600, 31);
  Options sorted_opts;
  sorted_opts.method = Method::Auto;
  Options unsorted_opts = sorted_opts;
  unsorted_opts.sorted_output = false;
  const Csc sorted = core::spkadd(inputs, sorted_opts);
  const Csc unsorted = core::spkadd(inputs, unsorted_opts);
  EXPECT_TRUE(validate(unsorted, /*require_sorted=*/false).valid);
  EXPECT_TRUE(canonicalized(unsorted) == sorted);
}

TEST(HybridBitIdentity, UnsortedInputsMatchHash) {
  auto inputs = random_collection(8, 512, 16, 600, 41);
  for (auto& m : inputs) gen::shuffle_columns(m, 99);
  Options opts;
  opts.method = Method::Auto;
  opts.inputs_sorted = false;
  const Csc hybrid = core::spkadd(inputs, opts);
  Options hash_opts = opts;
  hash_opts.method = Method::Hash;
  EXPECT_TRUE(hybrid == core::spkadd(inputs, hash_opts));
}

TEST(HybridBitIdentity, DefaultOptionsMixKernelsOnRmatHub) {
  // Default Options (Method::Auto) on skewed RMAT addends plus a hub
  // column: the hub's chunk and the heavy RMAT chunks go dense while the
  // light chunks stay on hash, and the mix is bit-identical to a single
  // heap merge on raw float values at one thread and at every core. The
  // hub holds every 64th row so it does not swallow the whole chunk
  // budget: the light columns still split into chunks of their own.
  gen::WorkloadSpec spec;
  spec.pattern = gen::Pattern::RMAT;
  spec.rows = 1 << 16;
  spec.cols = 256;
  spec.avg_nnz_per_col = 2;
  spec.k = 8;
  spec.seed = 1104;
  std::vector<Csc> inputs;
  for (const Csc& m : gen::make_workload(spec)) {
    Coo coo(m.rows(), m.cols());
    for (std::int32_t r = 0; r < m.rows(); r += 64)
      coo.push(r, 0, 1.0 / static_cast<double>(r + 3));
    for (std::int32_t j = 1; j < m.cols(); ++j) {
      const auto col = m.column(j);
      for (std::size_t i = 0; i < col.nnz(); ++i)
        coo.push(col.rows[i], j, col.vals[i]);
    }
    coo.compress();
    inputs.push_back(coo.to_csc());
  }
  Options heap_opts;
  heap_opts.method = Method::Heap;
  const Csc heap = core::spkadd(inputs, heap_opts);
  for (const int threads :
       {1, static_cast<int>(std::max<std::size_t>(1,
                                                  util::online_cpu_count()))}) {
    Options opts;
    opts.threads = threads;
    OpCounters counters;
    opts.counters = &counters;
    EXPECT_TRUE(core::spkadd(inputs, opts) == heap) << "T=" << threads;
    const int kernels = (counters.chunks_heap > 0) +
                        (counters.chunks_hash > 0) +
                        (counters.chunks_sliding > 0) +
                        (counters.chunks_dense > 0);
    EXPECT_GE(kernels, 2) << "T=" << threads << " mix "
                          << counters.chunk_mix();
    EXPECT_GT(counters.chunks_dense, 0u) << counters.chunk_mix();
  }
}

// ---------------------------------------------------------------------------
// Observability + dispatch plumbing
// ---------------------------------------------------------------------------

TEST(HybridCounters, ChunkCountsMatchThePlan) {
  const auto inputs = random_collection(8, 512, 32, 800, 51);
  Options opts;
  opts.method = Method::Auto;
  opts.threads = 3;
  OpCounters counters;
  opts.counters = &counters;
  (void)core::spkadd(inputs, opts);

  const ColumnPlan<std::int32_t> plan = plan_for(inputs, opts);
  EXPECT_EQ(counters.chunks_total(), plan.size());
  EXPECT_GT(counters.chunks_total(), 0u);
}

TEST(HybridDispatch, HeapChunksRequireActuallySortedInputs) {
  // Tiny k + sparse columns far under the dense gate classify into the
  // heap corner; declaring inputs sorted while they are not must throw
  // (like Method::Heap), not silently mis-merge.
  auto inputs = random_collection(3, 1 << 16, 8, 60, 81);
  for (auto& m : inputs) gen::shuffle_columns(m, 5);
  Options opts;
  opts.method = Method::Auto;
  opts.inputs_sorted = true;  // a lie
  ASSERT_TRUE(plan_for(inputs, opts).uses(ColumnKernel::Heap));
  EXPECT_THROW((void)core::spkadd(inputs, opts), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Consumer integration: accumulator + SUMMA
// ---------------------------------------------------------------------------

TEST(HybridConsumers, AccumulatorStreamingIsBitIdenticalToOneShot) {
  const auto inputs = random_collection(20, 512, 16, 700, 91);
  Options opts;
  opts.method = Method::Auto;
  const Csc one_shot = core::spkadd(inputs, opts);

  Accumulator<> acc(512, 16, opts, /*batch_capacity=*/4);
  for (const auto& m : inputs) acc.add(m);
  EXPECT_TRUE(acc.finalize() == one_shot);
}

TEST(HybridConsumers, SummaHybridPipelineMatchesSortedHash) {
  gen::WorkloadSpec spec;
  spec.pattern = gen::Pattern::RMAT;
  spec.rows = 256;
  spec.cols = 256;
  spec.avg_nnz_per_col = 4;
  spec.k = 1;
  spec.seed = 101;
  const Csc a = gen::make_workload(spec)[0];

  summa::SummaConfig hybrid_cfg = summa::hybrid_pipeline(4);
  summa::SummaConfig hash_cfg = summa::sorted_hash_pipeline(4);
  const auto hybrid_streaming = summa::multiply(a, a, hybrid_cfg);
  hybrid_cfg.streaming = false;
  const auto hybrid_buffered = summa::multiply(a, a, hybrid_cfg);
  const auto hash_result = summa::multiply(a, a, hash_cfg);

  EXPECT_TRUE(hybrid_streaming.c == hash_result.c);
  EXPECT_TRUE(hybrid_buffered.c == hash_result.c);
}

}  // namespace
