// k-way column-kernel methods (heap, hash, sliding hash, and the dense
// accumulator that is the paper's SPA) through core::spkadd — correctness
// against the dense oracle, edge cases, sorted/unsorted modes, counters,
// the dense accumulator's bits on special values at its bitmap
// boundaries — and the one column driver (core::kway_add): its chunk
// cutter under every method and team size, and its team-size discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "matrix/validate.hpp"
#include "test_helpers.hpp"
#include "util/omp_compat.hpp"
#include "util/thread_control.hpp"

namespace {

using namespace spkadd;
using namespace spkadd::core;
using spkadd::testing::canonicalized;
using spkadd::testing::dense_sum_oracle;
using spkadd::testing::dense_workspace_clean;
using spkadd::testing::from_triplets;
using spkadd::testing::random_collection;

using Csc = spkadd::testing::Csc;

/// Every method that runs a single column kernel on every chunk.
constexpr Method kSingleKernelMethods[] = {Method::Heap, Method::Hash,
                                           Method::SlidingHash,
                                           Method::DenseAcc};

/// core::spkadd with `method` set on `opts`.
Csc add(const std::vector<Csc>& inputs, Method method, Options opts = {}) {
  opts.method = method;
  return core::spkadd(inputs, opts);
}

class KwayDriverTest : public ::testing::Test {
 protected:
  static std::vector<Csc> paper_example() {
    // Fig. 1(a): four columns being added, extended to a full matrix.
    return {
        from_triplets(8, 1, {{1, 0, 3.0}, {3, 0, 2.0}, {6, 0, 1.0}}),
        from_triplets(8, 1, {{0, 0, 2.0}, {3, 0, 1.0}, {5, 0, 3.0}}),
        from_triplets(8, 1, {{5, 0, 2.0}, {7, 0, 1.0}}),
        from_triplets(8, 1, {{1, 0, 2.0}, {6, 0, 1.0}, {7, 0, 3.0}}),
    };
  }

  static Csc paper_result() {
    // Fig. 1(a) output column: (0,2)(1,5)(3,3)(5,5)(6,2)(7,4).
    return from_triplets(8, 1, {{0, 0, 2.0}, {1, 0, 5.0}, {3, 0, 3.0},
                                {5, 0, 5.0}, {6, 0, 2.0}, {7, 0, 4.0}});
  }
};

TEST_F(KwayDriverTest, HeapReproducesPaperFigure1) {
  const auto inputs = paper_example();
  EXPECT_TRUE(approx_equal(paper_result(), add(inputs, Method::Heap)));
}

TEST_F(KwayDriverTest, DenseAccReproducesPaperFigure1) {
  const auto inputs = paper_example();
  EXPECT_TRUE(approx_equal(paper_result(), add(inputs, Method::DenseAcc)));
}

TEST_F(KwayDriverTest, HashReproducesPaperFigure1) {
  const auto inputs = paper_example();
  EXPECT_TRUE(approx_equal(paper_result(), add(inputs, Method::Hash)));
}

TEST_F(KwayDriverTest, SlidingHashReproducesPaperFigure1) {
  const auto inputs = paper_example();
  Options opts;
  opts.max_table_entries = 2;  // force many parts even on a tiny column
  EXPECT_TRUE(
      approx_equal(paper_result(), add(inputs, Method::SlidingHash, opts)));
}

TEST_F(KwayDriverTest, AllDriversMatchOracleOnRandomInputs) {
  const auto inputs = random_collection(8, 128, 16, 300, 42);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  for (const Method m : kSingleKernelMethods)
    EXPECT_TRUE(approx_equal(oracle, add(inputs, m))) << method_name(m);
}

TEST_F(KwayDriverTest, HandlesEmptyMatricesInCollection) {
  std::vector<Csc> inputs = random_collection(3, 32, 8, 50, 7);
  inputs.emplace_back(32, 8);  // all-empty addend
  inputs.emplace_back(32, 8);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  EXPECT_TRUE(approx_equal(oracle, add(inputs, Method::Hash)));
  EXPECT_TRUE(approx_equal(oracle, add(inputs, Method::Heap)));
}

TEST_F(KwayDriverTest, AllEmptyCollection) {
  std::vector<Csc> inputs{Csc(16, 4), Csc(16, 4), Csc(16, 4)};
  for (const Method m : kSingleKernelMethods) {
    const auto out = add(inputs, m);
    EXPECT_EQ(out.nnz(), 0u) << method_name(m);
    EXPECT_EQ(out.rows(), 16);
    EXPECT_EQ(out.cols(), 4);
  }
}

TEST_F(KwayDriverTest, IdenticalInputsGiveCompressionFactorK) {
  const auto base = spkadd::testing::random_matrix(64, 8, 100, 5);
  std::vector<Csc> inputs(6, base);
  const auto out = add(inputs, Method::Hash);
  EXPECT_EQ(out.nnz(), base.nnz());  // cf == 6
  EXPECT_DOUBLE_EQ(
      compression_factor(std::span<const Csc>(inputs), out), 6.0);
  // Values are 6x the base.
  for (std::int32_t j = 0; j < base.cols(); ++j) {
    const auto col = base.column(j);
    for (std::size_t i = 0; i < col.nnz(); ++i)
      EXPECT_NEAR(out.at(col.rows[i], j), 6.0 * col.vals[i], 1e-12);
  }
}

TEST_F(KwayDriverTest, CancellationKeepsStructuralZero) {
  // a + (-a): the stored pattern survives with value 0 (structural
  // semantics, matching the paper/CombBLAS).
  const auto a = from_triplets(8, 1, {{2, 0, 5.0}, {6, 0, -1.0}});
  auto neg = a;
  for (auto& v : neg.mutable_values()) v = -v;
  std::vector<Csc> inputs{a, neg};
  const auto out = add(inputs, Method::Hash);
  EXPECT_EQ(out.nnz(), 2u);
  EXPECT_DOUBLE_EQ(out.at(2, 0), 0.0);
}

TEST_F(KwayDriverTest, HashAndDenseAccAcceptUnsortedInputs) {
  auto inputs = random_collection(4, 128, 8, 200, 9);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  for (std::size_t i = 0; i < inputs.size(); ++i)
    spkadd::gen::shuffle_columns(inputs[i], 1000 + i);
  Options opts;
  opts.inputs_sorted = false;
  for (const Method m : {Method::Hash, Method::DenseAcc})
    EXPECT_TRUE(approx_equal(oracle, add(inputs, m, opts))) << method_name(m);
  Options sliding_opts = opts;
  sliding_opts.max_table_entries = 16;  // force the filtered sliding path
  EXPECT_TRUE(approx_equal(
      oracle, add(inputs, Method::SlidingHash, sliding_opts)));
}

TEST_F(KwayDriverTest, HeapRejectsUnsortedInputs) {
  auto inputs = random_collection(3, 64, 8, 100, 12);
  spkadd::gen::shuffle_columns(inputs[1], 77);
  // Columns that are actually unsorted...
  EXPECT_THROW(add(inputs, Method::Heap), std::invalid_argument);
  // ...and a call that declares them unsorted.
  Options opts;
  opts.inputs_sorted = false;
  EXPECT_THROW(add(inputs, Method::Heap, opts), std::invalid_argument);
}

TEST_F(KwayDriverTest, UnsortedOutputHasSameEntrySet) {
  const auto inputs = random_collection(6, 128, 8, 250, 21);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  Options opts;
  opts.sorted_output = false;
  for (const Method m : {Method::Hash, Method::DenseAcc})
    EXPECT_TRUE(approx_equal(oracle, canonicalized(add(inputs, m, opts))))
        << method_name(m);
}

TEST_F(KwayDriverTest, NonConformantInputsThrow) {
  std::vector<Csc> inputs{Csc(4, 4), Csc(4, 5)};
  EXPECT_THROW(add(inputs, Method::Hash), std::invalid_argument);
  std::vector<Csc> empty;
  EXPECT_THROW(add(empty, Method::Hash), std::invalid_argument);
}

TEST_F(KwayDriverTest, SlidingHashMatchesHashForAnyTableCap) {
  const auto inputs = random_collection(8, 256, 8, 400, 33);
  const auto reference = add(inputs, Method::Hash);
  for (std::size_t cap : {8u, 16u, 64u, 256u, 4096u}) {
    Options opts;
    opts.max_table_entries = cap;
    EXPECT_TRUE(
        approx_equal(reference, add(inputs, Method::SlidingHash, opts)))
        << "cap=" << cap;
  }
}

TEST_F(KwayDriverTest, SlidingHashRespectsLlcBudgetOption) {
  const auto inputs = random_collection(8, 1 << 12, 4, 4000, 14);
  Options opts;
  opts.llc_bytes = 4 << 10;  // absurdly small LLC => many parts
  opts.threads = 1;
  const auto out = add(inputs, Method::SlidingHash, opts);
  EXPECT_TRUE(approx_equal(
      dense_sum_oracle(std::span<const Csc>(inputs)), out));
}

TEST_F(KwayDriverTest, CountersTrackWork) {
  const auto inputs = random_collection(8, 256, 16, 500, 55);
  OpCounters heap_c, hash_c, dense_c;
  Options opts;
  opts.counters = &heap_c;
  (void)add(inputs, Method::Heap, opts);
  opts.counters = &hash_c;
  (void)add(inputs, Method::Hash, opts);
  opts.counters = &dense_c;
  (void)add(inputs, Method::DenseAcc, opts);

  const std::size_t input_nnz = detail::total_nnz(std::span<const Csc>(inputs));
  // Every input entry passes through each structure at least once.
  EXPECT_GE(heap_c.heap_ops, input_nnz);
  EXPECT_GE(hash_c.hash_probes, input_nnz);
  EXPECT_GE(dense_c.dense_touches, input_nnz);
  EXPECT_GT(heap_c.bytes_moved, 0u);
}

TEST_F(KwayDriverTest, ExplicitThreadCounts) {
  const auto inputs = random_collection(4, 128, 16, 300, 71);
  const auto reference = add(inputs, Method::Hash);
  for (int t : {1, 2, 4}) {
    Options opts;
    opts.threads = t;
    for (const Method m : {Method::Hash, Method::Heap, Method::DenseAcc})
      EXPECT_TRUE(approx_equal(reference, add(inputs, m, opts)))
          << method_name(m) << " threads=" << t;
  }
}

TEST_F(KwayDriverTest, SingleColumnManyRows) {
  const auto inputs = random_collection(16, 1 << 14, 1, 2000, 81);
  const auto hash_out = add(inputs, Method::Hash);
  const auto heap_out = add(inputs, Method::Heap);
  EXPECT_TRUE(approx_equal(hash_out, heap_out));
}

TEST_F(KwayDriverTest, WideMatrixManyEmptyColumns) {
  std::vector<Csc> inputs;
  for (int i = 0; i < 4; ++i)
    inputs.push_back(from_triplets(
        8, 64, {{i, i * 7 % 64, 1.0}, {7 - i, (i * 13 + 1) % 64, 2.0}}));
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  for (const Method m : {Method::Hash, Method::Heap, Method::DenseAcc})
    EXPECT_TRUE(approx_equal(oracle, add(inputs, m))) << method_name(m);
}

// ---------------------------------------------------------------------------
// DenseAcc on special values and at the bitmap boundaries
// ---------------------------------------------------------------------------

/// Signed zeros, the smallest subnormals, the smallest normal and a value
/// whose sums overflow to +inf. No sum of them is -inf or NaN.
constexpr double kSpecialValues[] = {
    0.0, -0.0, 1.5, -2.25, 4.9e-324, -4.9e-324, 2.2250738585072014e-308,
    1e308};

/// Nine addends of four columns over `rows` rows, values drawn from
/// kSpecialValues:
///   0: a sparse column, 1-3 entries per addend;
///   1: addend 4 identity-dense, the others 0-3 entries;
///   2: random, up to rows/2 entries per addend;
///   3: dense views (nnz * 64 >= rows, not identity) in the even addends,
///      sparse views in the odd ones.
std::vector<Csc> special_value_addends(std::int32_t rows, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto draw = [&](std::uint64_t bound) {
    return static_cast<std::int32_t>(rng.bounded(bound));
  };
  std::vector<Csc> out;
  for (int a = 0; a < 9; ++a) {
    std::vector<std::int32_t> col_ptr{0};
    std::vector<std::int32_t> row_idx;
    std::vector<double> values;
    const auto push_column = [&](std::int32_t draws, bool identity = false) {
      std::vector<std::int32_t> col(static_cast<std::size_t>(draws));
      for (std::int32_t i = 0; i < draws; ++i)
        col[static_cast<std::size_t>(i)] = identity ? i : draw(rows);
      std::ranges::sort(col);
      col.erase(std::unique(col.begin(), col.end()), col.end());
      for (const std::int32_t r : col) {
        row_idx.push_back(r);
        values.push_back(kSpecialValues[draw(std::size(kSpecialValues))]);
      }
      col_ptr.push_back(static_cast<std::int32_t>(row_idx.size()));
    };
    push_column(1 + draw(3));
    if (a == 4)
      push_column(rows, true);
    else
      push_column(draw(4));
    push_column(draw(static_cast<std::uint64_t>(rows) / 2 + 1));
    push_column(a % 2 == 0 ? rows / 32 + 1 : 1 + draw(3));
    out.emplace_back(rows, 4, std::move(col_ptr), std::move(row_idx),
                     std::move(values));
  }
  return out;
}

/// Same structure and the same bits in every value.
bool bit_identical(const Csc& a, const Csc& b) {
  const auto same = [](auto x, auto y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
  };
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same(a.col_ptr(), b.col_ptr()) && same(a.row_idx(), b.row_idx()) &&
         same(a.values(), b.values());
}

TEST(DenseAccKernel, SpecialValuesAtBitmapBoundariesMatchHeapAndHash) {
  // Row counts straddle one occupancy word (64 rows) and one summary word
  // (4,096 rows). Sorted inputs must give the heap merge's bits, shuffled
  // ones the hash kernel's, at one thread and at every CPU. The thread's
  // one Runtime serves every call, small shapes after large ones too, so
  // its workspace must come back clean each time.
  const int nproc =
      static_cast<int>(std::max<std::size_t>(1, util::online_cpu_count()));
  const auto& rt = thread_runtime<std::int32_t, double>();
  for (const std::int32_t rows : {1, 63, 64, 65, 4095, 4096, 4097, 65537,
                                  4097, 4096, 4095, 65, 64, 63, 1}) {
    std::vector<Csc> inputs =
        special_value_addends(rows, static_cast<std::uint64_t>(rows));
    const Csc heap = add(inputs, Method::Heap);
    std::vector<Csc> shuffled = inputs;
    for (std::size_t i = 0; i < shuffled.size(); ++i)
      gen::shuffle_columns(shuffled[i], 500 + i);
    Options unsorted;
    unsorted.inputs_sorted = false;
    const Csc hash = add(shuffled, Method::Hash, unsorted);
    for (const int t : {1, nproc}) {
      const std::string where =
          "rows=" + std::to_string(rows) + " T=" + std::to_string(t);
      for (const bool sorted : {true, false}) {
        std::vector<const Csc*> ptrs;
        detail::borrow_all(std::span<const Csc>(sorted ? inputs : shuffled),
                           ptrs);
        Options opts;
        opts.method = Method::DenseAcc;
        opts.threads = t;
        opts.inputs_sorted = sorted;
        const Csc got =
            core::spkadd(MatrixPtrs<std::int32_t, double>(ptrs), opts);
        EXPECT_TRUE(bit_identical(got, sorted ? heap : hash))
            << where << (sorted ? " vs Heap" : " shuffled vs Hash");
        EXPECT_TRUE(dense_workspace_clean(rt)) << where;
      }
    }
  }
  EXPECT_GE(rt.scratch.at(0).dense.values.size(), 65537u);
}

// ---------------------------------------------------------------------------
// The column driver: chunk cutter
// ---------------------------------------------------------------------------

TEST(ColumnDriver, EveryMethodAndTeamMatchesHeap) {
  // Every column method runs the same chunk loop, so every method and
  // team size must give the heap merge's bits on raw float values. 37
  // columns is not a multiple of the 8-column block, so the cut leaves a
  // ragged tail.
  using FloatCsc = CscMatrix<std::int32_t, float>;
  constexpr std::int32_t kCols = 37;
  std::vector<FloatCsc> inputs;
  for (const Csc& m : random_collection(6, 256, kCols, 600, 91)) {
    const auto cp = m.col_ptr();
    const auto rows = m.row_idx();
    const auto vals = m.values();
    inputs.emplace_back(m.rows(), m.cols(),
                        std::vector<std::int32_t>(cp.begin(), cp.end()),
                        std::vector<std::int32_t>(rows.begin(), rows.end()),
                        std::vector<float>(vals.begin(), vals.end()));
  }
  Options heap_opts;
  heap_opts.method = Method::Heap;
  const FloatCsc heap = core::spkadd(inputs, heap_opts);
  const int nproc =
      static_cast<int>(std::max<std::size_t>(1, util::online_cpu_count()));
  for (const Method m : {Method::Heap, Method::Hash, Method::SlidingHash,
                         Method::DenseAcc, Method::Auto}) {
    const bool planned = m == Method::Auto;
    for (const int t : {1, 3, nproc}) {
      const std::string where = method_name(m) + " T=" + std::to_string(t);
      Options opts;
      opts.method = m;
      opts.threads = t;
      OpCounters counters;
      opts.counters = &counters;
      EXPECT_TRUE(core::spkadd(inputs, opts) == heap) << where;
      EXPECT_EQ(counters.chunks_total() > 0, planned) << where;
    }
  }
}

/// Threads of this process per /proc/self/task; 0 where it is absent.
std::size_t process_threads() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec))
    ++n;
  return n;
}

TEST(ColumnDriver, WideOutputScanStaysOnTheCallersTeam) {
  // A call pinned to one thread opens no wider team anywhere, the output
  // prefix sum included: 32,768 columns reach its parallel path while the
  // OpenMP default is 4. libgomp keeps a team's threads alive after the
  // region, so /proc/self/task shows any team that ever opened. That
  // needs a fresh process: the threadsafe death-test child runs this
  // body alone.
#ifndef _OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  if (process_threads() == 0) GTEST_SKIP() << "no /proc/self/task";
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(
      {
        int code = 1;
        {
          omp_set_num_threads(1);
          const auto inputs = random_collection(2, 64, 1 << 15, 1 << 12, 5);
          omp_set_num_threads(4);
          const std::size_t before = process_threads();
          Options opts;
          opts.method = Method::Hash;
          opts.threads = 1;
          const Csc out = core::spkadd(inputs, opts);
          code = out.cols() == (1 << 15) && process_threads() == before ? 0 : 1;
        }
        std::exit(code);
      },
      ::testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
