// End-to-end smoke: every public subsystem is touchable and a tiny SpKAdd
// agrees across all methods.
#include <gtest/gtest.h>

#include <algorithm>

#include "cachesim/traced_spkadd.hpp"
#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "matrix/validate.hpp"
#include "spgemm/local_spgemm.hpp"
#include "summa/sparse_summa.hpp"
#include "util/cache_info.hpp"
#include "version.hpp"

namespace {

using spkadd::CscMatrix;

TEST(Smoke, AllMethodsAgreeOnTinyWorkload) {
  spkadd::gen::WorkloadSpec spec;
  spec.rows = 1 << 8;
  spec.cols = 1 << 4;
  spec.avg_nnz_per_col = 8;
  spec.k = 8;
  const auto inputs = spkadd::gen::make_workload(spec);
  ASSERT_EQ(inputs.size(), 8u);

  spkadd::core::Options opts;
  opts.method = spkadd::core::Method::Hash;
  const auto reference = spkadd::core::spkadd(inputs, opts);
  ASSERT_TRUE(spkadd::validate(reference));

  for (auto m : {spkadd::core::Method::TwoWayIncremental,
                 spkadd::core::Method::TwoWayTree, spkadd::core::Method::Heap,
                 spkadd::core::Method::Spa, spkadd::core::Method::SlidingHash,
                 spkadd::core::Method::ReferenceIncremental,
                 spkadd::core::Method::ReferenceTree,
                 spkadd::core::Method::Auto}) {
    opts.method = m;
    const auto out = spkadd::core::spkadd(inputs, opts);
    EXPECT_TRUE(spkadd::approx_equal(reference, out))
        << spkadd::core::method_name(m);
  }
}

TEST(Smoke, VersionIsStamped) {
  // The build stamps src/version.hpp.in with the CMake project version.
  EXPECT_FALSE(spkadd::kVersion.empty());
  EXPECT_EQ(std::count(spkadd::kVersion.begin(), spkadd::kVersion.end(), '.'),
            2);
  EXPECT_GE(spkadd::kVersionMajor, 0);
  EXPECT_GE(spkadd::kVersionMinor, 0);
  EXPECT_GE(spkadd::kVersionPatch, 0);
}

TEST(Smoke, MachineDetectionNeverFails) {
  const auto info = spkadd::util::detect_machine();
  EXPECT_GE(info.logical_cpus, 1);
  EXPECT_GT(info.llc.bytes, 0u);
  EXPECT_FALSE(info.summary().empty());
}

}  // namespace
