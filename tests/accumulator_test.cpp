// The streaming accumulator (paper §V as a stateful subsystem): incremental
// folds equal one-shot SpKAdd, zero-copy staging, reuse of the folding
// thread's scratch across finalize() cycles and shapes, and the
// hash-sentinel shape guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/accumulator.hpp"
#include "gen/workload.hpp"
#include "matrix/validate.hpp"
#include "test_helpers.hpp"
#include "util/thread_control.hpp"

namespace {

using namespace spkadd;
using namespace spkadd::core;
using spkadd::testing::canonicalized;
using spkadd::testing::dense_sum_oracle;
using spkadd::testing::dense_workspace_clean;
using spkadd::testing::random_collection;
using spkadd::testing::random_matrix;

using Csc = spkadd::testing::Csc;
using FloatCsc = CscMatrix<std::int32_t, float>;

// Float sums expose the association order, so an equality check on them
// also checks that every fold stayed a strict left fold.
FloatCsc to_float(const Csc& m) {
  const auto cp = m.col_ptr();
  const auto ri = m.row_idx();
  const auto vv = m.values();
  return FloatCsc(m.rows(), m.cols(),
                  std::vector<std::int32_t>(cp.begin(), cp.end()),
                  std::vector<std::int32_t>(ri.begin(), ri.end()),
                  std::vector<float>(vv.begin(), vv.end()));
}

std::vector<FloatCsc> to_float(const std::vector<Csc>& ms) {
  std::vector<FloatCsc> out;
  for (const Csc& m : ms) out.push_back(to_float(m));
  return out;
}

// ----------------------------------------------------- partial_sum borrow
TEST(Accumulator, PartialSumBorrowsWithoutConsumingTheStream) {
  const auto inputs = random_collection(6, 64, 8, 120, 11);
  Accumulator<> acc(64, 8, {}, 4);
  for (int i = 0; i < 3; ++i) acc.add(inputs[static_cast<std::size_t>(i)]);
  // Borrowing folds what is pending but keeps the stream alive.
  const Csc mid = acc.partial_sum();
  EXPECT_EQ(acc.pending(), 0u);
  std::vector<Csc> first3(inputs.begin(), inputs.begin() + 3);
  EXPECT_EQ(mid, core::spkadd(first3));
  for (int i = 3; i < 6; ++i) acc.add(inputs[static_cast<std::size_t>(i)]);
  // The earlier borrow did not disturb the running sum: finalize still
  // matches the full one-shot reduction.
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  EXPECT_TRUE(approx_equal(oracle, acc.finalize()));
}

TEST(Accumulator, PartialSumOfVirginAccumulatorIsAllZeroShape) {
  Accumulator<> acc(10, 4);
  const Csc& p = acc.partial_sum();
  EXPECT_EQ(p.rows(), 10);
  EXPECT_EQ(p.cols(), 4);
  EXPECT_EQ(p.nnz(), 0u);
  EXPECT_TRUE(acc.partial_is_sorted());
  // finalize() after the materializing borrow is still the zero matrix.
  EXPECT_EQ(acc.finalize().nnz(), 0u);
}

TEST(Accumulator, PartialSortednessTracksUnsortedHashFolds) {
  Options opts;
  opts.method = Method::Hash;
  opts.sorted_output = false;
  Accumulator<> acc(128, 6, opts, 2);
  const auto inputs = random_collection(4, 128, 6, 400, 5);
  for (const auto& m : inputs) acc.add(m);
  (void)acc.partial_sum();
  EXPECT_FALSE(acc.partial_is_sorted());
}

TEST(Accumulator, DiscardStagedRecoversAfterAFailedFold) {
  Options opts;
  opts.method = Method::Heap;  // requires sorted inputs
  Accumulator<> acc(64, 4, opts, 8);
  const auto sorted = random_collection(3, 64, 4, 80, 17);
  for (const auto& m : sorted) acc.add(m);
  acc.flush();
  Csc bad = random_matrix(64, 4, 80, 18);
  gen::shuffle_columns(bad, 5);
  acc.add(bad);
  EXPECT_THROW(acc.flush(), std::invalid_argument);
  // The failed batch is dropped; the running sum keeps its last
  // consistent value and the accumulator keeps working.
  acc.discard_staged();
  EXPECT_EQ(acc.pending(), 0u);
  acc.add(sorted[0]);
  std::vector<Csc> expected(sorted);
  expected.push_back(sorted[0]);
  EXPECT_TRUE(approx_equal(dense_sum_oracle(std::span<const Csc>(expected)),
                           acc.finalize()));
}

TEST(Accumulator, ThrowingFoldKeepsTheSumBitForBit) {
  // The heap's sortedness check throws inside a fold, after the running
  // sum was handed to spkadd() but before the result could replace it:
  // on float values the sum must keep its exact bits, and after
  // discard_staged() the stream goes on to one-shot's bits.
  const std::vector<FloatCsc> sorted =
      to_float(random_collection(4, 64, 8, 300, 57));
  Csc shuffled = random_matrix(64, 8, 300, 59);
  gen::shuffle_columns(shuffled, 61);
  const FloatCsc unsorted = to_float(shuffled);
  ASSERT_FALSE(unsorted.is_sorted());

  Options opts;
  opts.method = Method::Heap;
  Accumulator<std::int32_t, float> acc(64, 8, opts, 2);
  acc.add(sorted[0]);
  acc.add(sorted[1]);
  const std::vector<FloatCsc> first2(sorted.begin(), sorted.begin() + 2);
  const FloatCsc kept = core::spkadd(first2, opts);
  acc.add(sorted[2]);
  EXPECT_THROW(acc.add(unsorted), std::invalid_argument);
  acc.discard_staged();
  EXPECT_TRUE(acc.partial_sum() == kept);
  acc.add(sorted[2]);
  acc.add(sorted[3]);
  EXPECT_TRUE(acc.finalize() == core::spkadd(sorted, opts));
}

// --------------------------------------------------- incremental == one-shot
TEST(Accumulator, IncrementalAddEqualsOneShotSpkadd) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const int k : {1, 5, 8, 17}) {
      const auto inputs = random_collection(k, 96, 12, 200, seed);
      const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
      Accumulator<> acc(96, 12);
      for (const auto& m : inputs) acc.add(m);
      EXPECT_TRUE(approx_equal(oracle, acc.finalize()))
          << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(Accumulator, PropertyAcrossMethodsAndCapacities) {
  const auto inputs = random_collection(13, 64, 8, 150, 11);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  for (auto m : {Method::Auto, Method::TwoWayTree, Method::Heap,
                 Method::Hash, Method::SlidingHash, Method::DenseAcc}) {
    for (const std::size_t cap : {1u, 2u, 4u, 13u, 100u}) {
      Options opts;
      opts.method = m;
      Accumulator<> acc(64, 8, opts, cap);
      acc.add_batch(std::span<const Csc>(inputs));
      EXPECT_TRUE(approx_equal(oracle, acc.finalize()))
          << method_name(m) << " cap=" << cap;
    }
  }
  // Unsorted inputs, through the kernels that accept them, folded at the
  // smallest capacities.
  auto unsorted = inputs;
  for (auto& m : unsorted) gen::shuffle_columns(m, 77);
  for (auto m : {Method::Hash, Method::SlidingHash, Method::DenseAcc}) {
    for (const std::size_t cap : {2u, 3u, 4u}) {
      Options opts;
      opts.method = m;
      opts.inputs_sorted = false;
      Accumulator<> acc(64, 8, opts, cap);
      acc.add_batch(std::span<const Csc>(unsorted));
      EXPECT_TRUE(approx_equal(oracle, acc.finalize()))
          << method_name(m) << " unsorted cap=" << cap;
    }
  }
}

TEST(Accumulator, UnsortedOutputStreamsFoldCorrectly) {
  // sorted_output=false leaves the running sum unsorted between folds; the
  // accumulator must mark it non-sorted for the next fold.
  const auto inputs = random_collection(9, 80, 6, 160, 13);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  Options opts;
  opts.method = Method::Hash;
  opts.sorted_output = false;
  Accumulator<> acc(80, 6, opts, 3);
  for (const auto& m : inputs) acc.add(m);
  EXPECT_TRUE(approx_equal(oracle, canonicalized(acc.finalize())));
}

// ------------------------------------------------------------- edge streams
TEST(Accumulator, EmptyStreamYieldsAllZeroMatrix) {
  Accumulator<> acc(32, 4);
  const auto out = acc.finalize();
  EXPECT_EQ(out.rows(), 32);
  EXPECT_EQ(out.cols(), 4);
  EXPECT_EQ(out.nnz(), 0u);
}

TEST(Accumulator, SingleAddendStreamCopiesThrough) {
  const auto m = random_matrix(48, 6, 90, 17);
  Accumulator<> acc(48, 6);
  acc.add(m);
  EXPECT_TRUE(acc.finalize() == m);
}

TEST(Accumulator, EmptyAddendsAreHarmless) {
  auto inputs = random_collection(4, 40, 5, 80, 19);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  Accumulator<> acc(40, 5, Options{}, 2);
  acc.add(Csc(40, 5));  // all-empty owned addend
  for (const auto& m : inputs) {
    acc.add(m);
    acc.add(Csc(40, 5));  // interleave empties
  }
  EXPECT_TRUE(approx_equal(oracle, acc.finalize()));
}

TEST(Accumulator, RejectsNonConformantAddend) {
  Accumulator<> acc(16, 4);
  EXPECT_THROW(acc.add(Csc(16, 5)), std::invalid_argument);
  EXPECT_THROW(acc.add(Csc(17, 4)), std::invalid_argument);
}

TEST(Accumulator, RejectsZeroBatchCapacity) {
  EXPECT_THROW(Accumulator<>(8, 2, Options{}, 0), std::invalid_argument);
}

// --------------------------------------------------------------- zero copies
TEST(Accumulator, BorrowedStreamingMakesZeroInputCopies) {
  const auto inputs = random_collection(16, 64, 8, 120, 23);
  Options opts;
  opts.method = Method::Hash;
  Accumulator<> acc(64, 8, opts, 4);
  const std::uint64_t before = debug::csc_copies();
  for (const auto& m : inputs) acc.add(m);
  auto out = acc.finalize();
  EXPECT_EQ(debug::csc_copies() - before, 0u);
  EXPECT_GT(out.nnz(), 0u);
}

TEST(Accumulator, MovedAddendsMakeZeroCopies) {
  auto inputs = random_collection(10, 64, 8, 120, 29);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  Options opts;
  opts.method = Method::Hash;
  Accumulator<> acc(64, 8, opts, 3);
  const std::uint64_t before = debug::csc_copies();
  for (auto& m : inputs) acc.add(std::move(m));
  const auto out = acc.finalize();
  EXPECT_EQ(debug::csc_copies() - before, 0u);
  EXPECT_TRUE(approx_equal(oracle, out));
}

// ----------------------------------------------------------- workspace reuse
TEST(Accumulator, WorkspaceSurvivesFinalizeAndDoesNotRegrow) {
  // On a fresh thread, whose Runtime starts empty.
  std::thread([] {
    const auto inputs = random_collection(12, 128, 16, 400, 31);
    const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
    Options opts;
    opts.method = Method::Hash;
    Accumulator<> acc(128, 16, opts, 4);
    const auto& rt = thread_runtime<std::int32_t, double>();

    acc.add_batch(std::span<const Csc>(inputs));
    EXPECT_TRUE(approx_equal(oracle, acc.finalize()));
    const std::size_t grown = rt.storage_bytes();
    EXPECT_GT(grown, 0u);  // scratch survives finalize()

    // An identical second stream must not grow the scratch further.
    acc.add_batch(std::span<const Csc>(inputs));
    EXPECT_TRUE(approx_equal(oracle, acc.finalize()));
    EXPECT_EQ(rt.storage_bytes(), grown);
    EXPECT_EQ(acc.stats().addends, 24u);
    EXPECT_GE(acc.stats().flushes, 6u);
  }).join();
}

TEST(Accumulator, InterleavedShapesShareTheThreadsScratchBitExactly) {
  // A tall and a wide stream fold alternately on one thread, so one pool
  // serves a 65,537-row fold, then a 64-row one, and back. On float
  // values each sum must match one-shot Heap bit for bit, and the
  // DenseAcc workspace must come back clean after every fold.
  const std::vector<FloatCsc> streams[] = {
      to_float(random_collection(12, 65537, 8, 400, 53)),
      to_float(random_collection(12, 64, 32, 200, 59))};
  using FloatAcc = Accumulator<std::int32_t, float>;
  const auto& rt = thread_runtime<std::int32_t, float>();
  const int nproc =
      static_cast<int>(std::max<std::size_t>(1, util::online_cpu_count()));
  for (const Method m : {Method::Auto, Method::DenseAcc}) {
    for (const int t : {1, nproc}) {
      const std::string where = method_name(m) + " T=" + std::to_string(t);
      Options opts;
      opts.method = m;
      opts.threads = t;
      std::vector<FloatAcc> accs;
      for (const auto& s : streams)
        accs.emplace_back(s[0].rows(), s[0].cols(), opts, 3);
      for (std::size_t i = 0; i < 12; ++i) {
        for (std::size_t a = 0; a < accs.size(); ++a) {
          accs[a].add(streams[a][i]);
          EXPECT_TRUE(dense_workspace_clean(rt)) << where;
        }
      }
      Options heap = opts;
      heap.method = Method::Heap;
      for (std::size_t a = 0; a < accs.size(); ++a) {
        EXPECT_TRUE(accs[a].finalize() == core::spkadd(streams[a], heap))
            << where << " rows=" << streams[a][0].rows();
        EXPECT_TRUE(dense_workspace_clean(rt)) << where;
        EXPECT_EQ(accs[a].stats().flushes, 4u) << where;
      }
    }
  }
  EXPECT_GE(rt.scratch.at(0).dense.values.size(), 65537u);
}

TEST(Accumulator, StatsTrackPeakIntermediateFootprint) {
  const auto inputs = random_collection(8, 64, 8, 200, 37);
  Accumulator<> acc(64, 8, Options{}, 4);
  acc.add_batch(std::span<const Csc>(inputs));
  (void)acc.finalize();
  EXPECT_GT(acc.stats().peak_intermediate_bytes, 0u);
}

// ----------------------------------------------- in-place staging + reshape
TEST(Accumulator, StageBufferEmitsInPlaceWithZeroCopies) {
  auto inputs = random_collection(9, 64, 8, 150, 41);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  Options opts;
  opts.method = Method::Hash;
  Accumulator<> acc(64, 8, opts, 3);
  const std::uint64_t before = debug::csc_copies();
  for (auto& m : inputs) {
    acc.stage_buffer() = std::move(m);  // the producer fills the slot
    acc.commit_staged();
  }
  const auto out = acc.finalize();
  EXPECT_EQ(debug::csc_copies() - before, 0u);
  EXPECT_TRUE(approx_equal(oracle, out));
}

TEST(Accumulator, StageBufferProtocolIsEnforced) {
  const auto m = random_matrix(16, 4, 30, 42);
  Accumulator<> acc(16, 4);
  EXPECT_THROW(acc.commit_staged(), std::logic_error);  // nothing open
  auto& slot = acc.stage_buffer();
  EXPECT_THROW((void)acc.stage_buffer(), std::logic_error);  // already open
  EXPECT_THROW(acc.flush(), std::logic_error);  // fold with an open buffer
  EXPECT_THROW(acc.add(m), std::logic_error);   // add with an open buffer
  EXPECT_THROW(acc.add(Csc(m)), std::logic_error);  // owned add, same
  slot = Csc(16, 4);
  acc.commit_staged();
  EXPECT_EQ(acc.pending(), 1u);
  // A committed wrong-shape emission is rejected like any other addend.
  acc.stage_buffer() = Csc(8, 4);
  EXPECT_THROW(acc.commit_staged(), std::invalid_argument);
}

TEST(Accumulator, RejectedStageBufferLeavesNoDebris) {
  // A wrong-shape emission must vanish entirely: the next single-addend
  // stream must yield that addend, not the rejected buffer's contents.
  const auto m = random_matrix(16, 4, 30, 48);
  Accumulator<> acc(16, 4);
  acc.stage_buffer() = Csc(8, 4);
  EXPECT_THROW(acc.commit_staged(), std::invalid_argument);
  acc.add(m);  // borrowed single addend
  const auto out = acc.finalize();
  EXPECT_TRUE(out == m);
}

TEST(Accumulator, ReshapeServesDifferentlyShapedStreams) {
  Accumulator<> acc(64, 8, Options{}, 4);
  const auto first = random_collection(6, 64, 8, 150, 43);
  acc.add_batch(std::span<const Csc>(first));
  EXPECT_TRUE(approx_equal(dense_sum_oracle(std::span<const Csc>(first)),
                           acc.finalize()));
  const auto& rt = thread_runtime<std::int32_t, double>();
  const std::size_t grown = rt.storage_bytes();

  acc.reshape(32, 5);
  EXPECT_EQ(acc.rows(), 32);
  EXPECT_EQ(acc.cols(), 5);
  EXPECT_EQ(rt.storage_bytes(), grown);  // scratch survives the reshape
  const auto second = random_collection(6, 32, 5, 80, 44);
  acc.add_batch(std::span<const Csc>(second));
  EXPECT_TRUE(approx_equal(dense_sum_oracle(std::span<const Csc>(second)),
                           acc.finalize()));
}

TEST(Accumulator, ReshapeWhileNotIdleThrows) {
  const auto m = random_matrix(16, 4, 30, 45);
  Accumulator<> acc(16, 4);
  acc.add(m);
  EXPECT_THROW(acc.reshape(8, 8), std::logic_error);  // pending addend
  acc.flush();
  EXPECT_THROW(acc.reshape(8, 8), std::logic_error);  // running sum exists
  (void)acc.finalize();
  acc.reshape(8, 8);  // idle again: fine
  EXPECT_EQ(acc.rows(), 8);
}

TEST(Accumulator, PeakStagedNnzIsBoundedByBatchCapacity) {
  const auto inputs = random_collection(12, 64, 8, 200, 46);
  std::size_t max_addend = 0;
  for (const auto& m : inputs) max_addend = std::max(max_addend, m.nnz());
  for (const std::size_t cap : {1u, 2u, 4u}) {
    Accumulator<> acc(64, 8, Options{}, cap);
    acc.add_batch(std::span<const Csc>(inputs));
    (void)acc.finalize();
    EXPECT_LE(acc.stats().peak_staged_nnz, cap * max_addend) << "cap=" << cap;
    EXPECT_GT(acc.stats().peak_staged_nnz, 0u);
  }
}

TEST(Accumulator, HeapMethodStreamingIsBitIdenticalToOneShot) {
  // The (row, source) heap tie-break makes the k-way merge a strict left
  // fold, so incremental heap folds reproduce one-shot heap SpKAdd exactly.
  const auto inputs = random_collection(11, 96, 10, 400, 47);
  Options opts;
  opts.method = Method::Heap;
  const auto one_shot = core::spkadd(std::span<const Csc>(inputs), opts);
  for (const std::size_t cap : {1u, 2u, 3u, 16u}) {
    Accumulator<> acc(96, 10, opts, cap);
    acc.add_batch(std::span<const Csc>(inputs));
    EXPECT_TRUE(acc.finalize() == one_shot) << "cap=" << cap;
  }
}

// ------------------------------------------------------- size-ratio trigger
TEST(FoldTrigger, DefaultStreamFoldsOnSizeRatioBitIdenticalToHeap) {
  // 256 equal-shape addends: a fold every 8 would re-stream the growing
  // running sum 32 times. The size ratio folds once the staged nnz reaches
  // the sum's, so each batch is about as large as everything before it.
  gen::WorkloadSpec spec;
  spec.pattern = gen::Pattern::ER;
  spec.rows = 4096;
  spec.cols = 32;
  spec.avg_nnz_per_col = 4;
  spec.k = 256;
  spec.seed = 2701;
  const std::vector<FloatCsc> inputs = to_float(gen::make_workload(spec));
  const int nproc =
      static_cast<int>(std::max<std::size_t>(1, util::online_cpu_count()));
  for (const int t : {1, nproc}) {
    Options heap;
    heap.method = Method::Heap;
    heap.threads = t;
    const FloatCsc one_shot = core::spkadd(inputs, heap);
    Options opts;
    opts.threads = t;
    Accumulator<std::int32_t, float> acc(4096, 32, opts);
    for (const auto& m : inputs) acc.add(m);
    EXPECT_TRUE(acc.finalize() == one_shot) << "T=" << t;
    EXPECT_LE(acc.stats().flushes, 8u) << "T=" << t;
  }
}

TEST(FoldTrigger, ShortStreamFoldsOnlyWhenAsked) {
  const auto inputs = random_collection(7, 64, 8, 120, 2703);
  Accumulator<> acc(64, 8);
  for (const auto& m : inputs) acc.add(m);
  EXPECT_EQ(acc.stats().flushes, 0u);
  EXPECT_EQ(acc.pending(), 7u);
  EXPECT_TRUE(acc.finalize() == core::spkadd(inputs));
  EXPECT_EQ(acc.stats().flushes, 1u);

  // A borrow mid-stream still folds what is pending.
  for (std::size_t i = 0; i < 3; ++i) acc.add(inputs[i]);
  const std::vector<Csc> first3(inputs.begin(), inputs.begin() + 3);
  EXPECT_TRUE(acc.partial_sum() == core::spkadd(first3));
  EXPECT_EQ(acc.pending(), 0u);
  EXPECT_EQ(acc.stats().flushes, 2u);
  for (std::size_t i = 3; i < 7; ++i) acc.add(inputs[i]);
  EXPECT_EQ(acc.stats().flushes, 2u);
  EXPECT_TRUE(acc.finalize() == core::spkadd(inputs));
}

TEST(FoldTrigger, ExplicitCapsStayHardBounds) {
  // A large first addend outweighs the small ones after it, so the size
  // ratio alone lets the staged count run past every cap below.
  std::vector<Csc> inputs{random_matrix(256, 8, 1500, 2707)};
  for (auto& m : random_collection(40, 256, 8, 20, 2709))
    inputs.push_back(std::move(m));
  std::size_t max_addend = 0;
  for (const auto& m : inputs) max_addend = std::max(max_addend, m.nnz());
  const Csc one_shot = core::spkadd(inputs);
  for (const std::size_t cap : {1u, 2u, 4u, 8u, 16u}) {
    Accumulator<> acc(256, 8, Options{}, cap);
    for (const auto& m : inputs) {
      acc.add(m);
      EXPECT_LT(acc.pending(), cap) << "cap=" << cap;
    }
    EXPECT_LE(acc.stats().peak_staged_nnz, cap * max_addend) << "cap=" << cap;
    EXPECT_TRUE(acc.finalize() == one_shot) << "cap=" << cap;
  }
  Accumulator<> uncapped(256, 8);
  std::size_t most_pending = 0;
  for (const auto& m : inputs) {
    uncapped.add(m);
    most_pending = std::max(most_pending, uncapped.pending());
  }
  EXPECT_GT(most_pending, 16u);
  EXPECT_TRUE(uncapped.finalize() == one_shot);
}

TEST(FoldTrigger, HighFillStreamIsBitIdenticalToOneShot) {
  // Every column of this stream's running sum fills past half its rows,
  // so Auto's planner gives each fold's chunks to DenseAcc. On float
  // values the snapshots, a mid-stream partial_sum() included, must match
  // one-shot spkadd() bit for bit, whether a count or the size ratio
  // fires the folds, at T=1 and T=nproc.
  const std::vector<FloatCsc> inputs =
      to_float(random_collection(10, 64, 8, 300, 51));
  const std::vector<FloatCsc> first6(inputs.begin(), inputs.begin() + 6);
  using FloatAcc = Accumulator<std::int32_t, float>;
  const int nproc =
      static_cast<int>(std::max<std::size_t>(1, util::online_cpu_count()));
  for (const Method m : {Method::Auto, Method::Hash}) {
    for (const int t : {1, nproc}) {
      for (const std::size_t cap : {std::size_t{2}, FloatAcc::kNoBatchCap}) {
        const std::string where = method_name(m) + " T=" +
                                  std::to_string(t) +
                                  " cap=" + std::to_string(cap);
        Options opts;
        opts.method = m;
        opts.threads = t;
        FloatAcc acc(64, 8, opts, cap);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          acc.add(inputs[i]);
          if (i == 5) {
            EXPECT_TRUE(acc.partial_sum() == core::spkadd(first6, opts))
                << where;
          }
        }
        const FloatCsc sum = acc.finalize();
        EXPECT_TRUE(sum == core::spkadd(inputs, opts)) << where;
        for (std::int32_t j = 0; j < sum.cols(); ++j)
          EXPECT_GE(2 * sum.col_nnz(j), sum.rows()) << where << " col " << j;
      }
    }
  }
}

// ------------------------------------------------------- hash sentinel guard
TEST(SentinelGuard, UnsignedMaxRowCountIsRejected) {
  using UCsc = CscMatrix<std::uint32_t, double>;
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  const UCsc bad(kMax, 1);  // shape only: no entries allocated
  EXPECT_FALSE(validate(bad));
  std::vector<UCsc> inputs{bad, bad};
  EXPECT_THROW(
      (void)core::spkadd(std::span<const UCsc>(inputs), Options{}),
      std::invalid_argument);
  EXPECT_THROW((Accumulator<std::uint32_t, double>(kMax, 1)),
               std::invalid_argument);
}

TEST(SentinelGuard, SaneUnsignedShapesStillWork) {
  using UCsc = CscMatrix<std::uint32_t, double>;
  UCsc a(8, 2, {0, 2, 3}, {1, 5, 7}, {1.0, 2.0, 3.0});
  UCsc b(8, 2, {0, 1, 3}, {5, 0, 7}, {10.0, 4.0, 5.0});
  EXPECT_TRUE(validate(a));
  std::vector<UCsc> inputs{a, b};
  Options opts;
  opts.method = Method::Hash;
  const auto sum = core::spkadd(std::span<const UCsc>(inputs), opts);
  EXPECT_EQ(sum.nnz(), 4u);
  EXPECT_DOUBLE_EQ(sum.at(5, 0), 12.0);
  EXPECT_DOUBLE_EQ(sum.at(7, 1), 8.0);
}

TEST(SentinelGuard, SignedShapesAreUnaffected) {
  const auto inputs = random_collection(3, 32, 4, 60, 43);
  EXPECT_TRUE(validate(inputs[0]));
  EXPECT_NO_THROW((void)core::spkadd(inputs));
}

}  // namespace
