// Property-based sweeps: for every (pattern, k, d, method, sortedness) cell
// the result must equal the dense oracle, validate structurally, and agree
// across methods. Uses parameterized gtest as the sweep engine.
#include <gtest/gtest.h>

#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "matrix/validate.hpp"
#include "test_helpers.hpp"

namespace {

using namespace spkadd;
using namespace spkadd::core;
using spkadd::gen::Pattern;
using spkadd::gen::WorkloadSpec;

using Csc = spkadd::testing::Csc;

struct SweepCase {
  Pattern pattern;
  int k;
  int d;
  Method method;
  bool sorted_output;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const auto& c = info.param;
  std::string name = c.pattern == Pattern::ER ? "ER" : "RMAT";
  name += "_k" + std::to_string(c.k) + "_d" + std::to_string(c.d) + "_";
  std::string m = method_name(c.method);
  for (char& ch : m)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  name += m;
  name += c.sorted_output ? "_sorted" : "_unsorted";
  return name;
}

class SpkaddSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  static std::vector<Csc> workload(const SweepCase& c) {
    WorkloadSpec spec;
    spec.pattern = c.pattern;
    spec.rows = 256;
    spec.cols = 16;
    spec.avg_nnz_per_col = c.d;
    spec.k = c.k;
    spec.seed = 42 + static_cast<std::uint64_t>(c.k) * 31 +
                static_cast<std::uint64_t>(c.d);
    return spkadd::gen::make_workload(spec);
  }
};

TEST_P(SpkaddSweep, MatchesDenseOracle) {
  const SweepCase c = GetParam();
  const auto inputs = workload(c);
  const auto oracle =
      spkadd::testing::dense_sum_oracle(std::span<const Csc>(inputs));

  Options opts;
  opts.method = c.method;
  opts.sorted_output = c.sorted_output;
  auto out = core::spkadd(inputs, opts);

  EXPECT_TRUE(validate(out, /*require_sorted=*/false).valid);
  if (!c.sorted_output) out.sort_columns();
  EXPECT_TRUE(validate(out, /*require_sorted=*/true).valid);
  EXPECT_TRUE(approx_equal(oracle, out));

  // Output never exceeds the sum of inputs; compression factor >= 1.
  EXPECT_LE(out.nnz(), spkadd::gen::total_input_nnz(inputs));
  EXPECT_GE(compression_factor(std::span<const Csc>(inputs), out), 1.0);
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  const Method methods[] = {Method::TwoWayIncremental, Method::TwoWayTree,
                            Method::Heap, Method::Hash, Method::SlidingHash,
                            Method::DenseAcc, Method::Auto};
  for (Pattern p : {Pattern::ER, Pattern::RMAT})
    for (int k : {2, 4, 8, 16})
      for (int d : {2, 8, 32})
        for (Method m : methods) {
          cases.push_back({p, k, d, m, true});
          // Unsorted output for the methods that run a column kernel.
          if (m == Method::Hash || m == Method::SlidingHash ||
              m == Method::DenseAcc || m == Method::Auto)
            cases.push_back({p, k, d, m, false});
        }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPatternsMethodsSizes, SpkaddSweep,
                         ::testing::ValuesIn(sweep_cases()), case_name);

TEST(DenseAccBitIdentity, MatchesReferenceIncrementalOnRandomBatches) {
  // The dense bitmap accumulator runs the same strict left fold as the
  // pairwise reference chain, so raw FP results must match bit for bit —
  // no quantization, every pattern, k across the sparse/dense boundary.
  for (Pattern p : {Pattern::ER, Pattern::RMAT}) {
    for (int k : {2, 4, 8, 16}) {
      for (int d : {2, 32, 128}) {
        WorkloadSpec spec;
        spec.pattern = p;
        spec.rows = 256;
        spec.cols = 16;
        spec.avg_nnz_per_col = d;
        spec.k = k;
        spec.seed = 4242 + static_cast<std::uint64_t>(k) * 13 +
                    static_cast<std::uint64_t>(d);
        const auto inputs = spkadd::gen::make_workload(spec);
        Options dense_opts;
        dense_opts.method = Method::DenseAcc;
        Options ref_opts;
        ref_opts.method = Method::ReferenceIncremental;
        EXPECT_TRUE(core::spkadd(inputs, dense_opts) ==
                    core::spkadd(inputs, ref_opts))
            << "k=" << k << " d=" << d;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-type instantiation: the kernels are index/value generic.
// ---------------------------------------------------------------------------

template <class IndexT, class ValueT>
void check_generic_roundtrip() {
  using M = CscMatrix<IndexT, ValueT>;
  std::vector<M> inputs;
  for (int i = 0; i < 4; ++i) {
    std::vector<IndexT> col_ptr{0, 2, 3};
    std::vector<IndexT> rows{static_cast<IndexT>(i),
                             static_cast<IndexT>(i + 4),
                             static_cast<IndexT>(2 * i)};
    std::vector<ValueT> vals{static_cast<ValueT>(1), static_cast<ValueT>(2),
                             static_cast<ValueT>(3)};
    inputs.emplace_back(static_cast<IndexT>(16), static_cast<IndexT>(2),
                        std::move(col_ptr), std::move(rows), std::move(vals));
  }
  const auto add = [&inputs](Method m) {
    Options opts;
    opts.method = m;
    return core::spkadd(inputs, opts);
  };
  const auto hash_out = add(Method::Hash);
  const auto heap_out = add(Method::Heap);
  const auto dense_out = add(Method::DenseAcc);
  EXPECT_TRUE(hash_out == heap_out);
  EXPECT_TRUE(hash_out == dense_out);
  EXPECT_EQ(hash_out.rows(), 16);
}

TEST(GenericTypes, Int64Double) {
  check_generic_roundtrip<std::int64_t, double>();
}
TEST(GenericTypes, Int32Float) {
  check_generic_roundtrip<std::int32_t, float>();
}
TEST(GenericTypes, Int64Float) {
  check_generic_roundtrip<std::int64_t, float>();
}

}  // namespace
