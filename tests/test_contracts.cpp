// Death tests for the NF_CHECK contract framework (src/common/check.hpp).
// These verify the macros abort with a diagnosable message — the property
// every numerical-core invariant in the repo now leans on — and that they
// are zero-cost no-ops on the happy path.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "cmp/pad_model.hpp"
#include "common/check.hpp"
#include "common/grid2d.hpp"
#include "common/stats.hpp"
#include "geom/rect.hpp"
#include "tape/tensor.hpp"

namespace {

using neurfill::GridD;

TEST(Contracts, PassingChecksAreSilent) {
  NF_CHECK(2 + 2 == 4);
  NF_CHECK(true, "with context %d", 1);
  NF_CHECK_BOUNDS(2, 3);
  NF_CHECK_FINITE(1.5);
  const std::vector<double> v{0.0, -1.0, 2.5};
  NF_CHECK_ALL_FINITE("vector", v.data(), v.size());
  SUCCEED();
}

#if !defined(NEURFILL_DISABLE_CHECKS)

TEST(ContractsDeathTest, CheckAbortsWithFormattedContext) {
  EXPECT_DEATH(NF_CHECK(1 == 2, "context value %d", 42),
               "NF_CHECK failed.*1 == 2.*context value 42");
}

TEST(ContractsDeathTest, CheckAbortsWithoutContext) {
  EXPECT_DEATH(NF_CHECK(false), "NF_CHECK failed");
}

TEST(ContractsDeathTest, BoundsAbortsAtSize) {
  EXPECT_DEATH(NF_CHECK_BOUNDS(5, 5), "NF_CHECK_BOUNDS failed.*index 5, size 5");
}

TEST(ContractsDeathTest, BoundsAbortsOnNegativeSignedIndex) {
  const int i = -1;
  EXPECT_DEATH(NF_CHECK_BOUNDS(i, 10), "NF_CHECK_BOUNDS failed");
}

TEST(ContractsDeathTest, FiniteAbortsOnNaN) {
  const double bad = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(NF_CHECK_FINITE(bad), "NF_CHECK_FINITE failed");
}

TEST(ContractsDeathTest, FiniteAbortsOnInfinity) {
  const float bad = std::numeric_limits<float>::infinity();
  EXPECT_DEATH(NF_CHECK_FINITE(bad), "NF_CHECK_FINITE failed.*value is inf");
}

TEST(ContractsDeathTest, AllFiniteReportsOffendingElement) {
  const std::vector<float> v{1.0f, 2.0f,
                             -std::numeric_limits<float>::infinity()};
  EXPECT_DEATH(NF_CHECK_ALL_FINITE("poisoned buffer", v.data(), v.size()),
               "poisoned buffer.*element 2 of 3 is -inf");
}

TEST(ContractsDeathTest, UnreachableAborts) {
  EXPECT_DEATH(NF_UNREACHABLE("impossible enum value"),
               "NF_UNREACHABLE failed.*impossible enum value");
}

// The contracts this PR wired into the containers, exercised end to end:
// the bare asserts they replaced vanished in Release, these do not.

TEST(ContractsDeathTest, Grid2DRejectsRowOutOfBounds) {
  GridD g(3, 4, 0.0);
  EXPECT_DEATH(g(3, 0), "NF_CHECK_BOUNDS failed.*index 3, size 3");
}

TEST(ContractsDeathTest, Grid2DRejectsColOutOfBounds) {
  GridD g(3, 4, 0.0);
  EXPECT_DEATH(g(0, 4), "NF_CHECK_BOUNDS failed.*index 4, size 4");
}

TEST(ContractsDeathTest, Grid2DRejectsFlatIndexOutOfBounds) {
  GridD g(3, 4, 0.0);
  EXPECT_DEATH(g[12], "NF_CHECK_BOUNDS failed.*index 12, size 12");
}

TEST(ContractsDeathTest, TensorRejectsDimOutOfRange) {
  const neurfill::nn::Tensor t({2, 3});
  EXPECT_DEATH(t.dim(2), "NF_CHECK_BOUNDS failed");
}

TEST(ContractsDeathTest, UndefinedTensorAborts) {
  const neurfill::nn::Tensor t;
  EXPECT_DEATH(t.numel(), "undefined tensor");
}

// Regression tests for invariants that used to be plain assert() — which
// -DNDEBUG silently compiled out of every Release build — and are NF_CHECK
// contracts since the contract-style lint sweep (docs/static_analysis.md).

TEST(ContractsDeathTest, RectRejectsInvertedExtent) {
  EXPECT_DEATH(neurfill::Rect(1.0, 0.0, 0.0, 2.0), "inverted extent");
}

TEST(ContractsDeathTest, PercentileRejectsEmptySample) {
  EXPECT_DEATH(neurfill::percentile({}, 50.0), "empty sample");
}

TEST(ContractsDeathTest, HistogramRejectsZeroBinsAndInvertedRange) {
  EXPECT_DEATH(neurfill::Histogram(0.0, 1.0, 0), "NF_CHECK failed");
  EXPECT_DEATH(neurfill::Histogram(1.0, 0.0, 10), "NF_CHECK failed");
}

TEST(ContractsDeathTest, AsperityPressureRejectsEmptyGrid) {
  EXPECT_DEATH(neurfill::asperity_pressure(GridD(), 0.5, 1.0),
               "empty height grid");
}

#endif  // !defined(NEURFILL_DISABLE_CHECKS)

TEST(Contracts, Grid2DInBoundsAccessWorks) {
  GridD g(3, 4, 0.0);
  g(2, 3) = 7.0;
  EXPECT_EQ(g(2, 3), 7.0);
  EXPECT_EQ(g[2 * 4 + 3], 7.0);
}

}  // namespace
