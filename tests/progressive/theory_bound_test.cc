// The theory estimator is a guaranteed bound: its per-level constant is at
// least the exact infinity norm of that level's recomposition operator
// R_l, so sum_l C_l * Err[l][b_l] bounds the max reconstruction error.
//
// R_l is linear, so its columns are the recompositions of unit impulses on
// level l's coefficients, and ||R_l||_inf is the largest absolute row sum
// over those columns. The test builds it exactly on small grids of every
// dimensionality, at every step count up to 4, with and without the
// mass-matrix correction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "decompose/decomposer.h"
#include "decompose/hierarchy.h"
#include "decompose/interleaver.h"
#include "progressive/error_estimator.h"
#include "util/parallel.h"

namespace mgardp {
namespace {

// ||R_l||_inf for every level of `hierarchy`.
std::vector<double> ExactLevelNorms(const GridHierarchy& hierarchy,
                                    bool correction) {
  const int L = hierarchy.num_levels();
  const Interleaver interleaver(hierarchy);
  DecomposeOptions options;
  options.use_correction = correction;
  const Decomposer decomposer(hierarchy, options);
  std::vector<std::vector<double>> levels(L);
  for (int l = 0; l < L; ++l) {
    levels[l].assign(hierarchy.LevelSize(l), 0.0);
  }
  std::vector<double> norms(L, 0.0);
  Array3Dd data(hierarchy.dims());
  for (int l = 0; l < L; ++l) {
    std::vector<double> row_sums(hierarchy.TotalSize(), 0.0);
    for (std::size_t i = 0; i < hierarchy.LevelSize(l); ++i) {
      levels[l][i] = 1.0;
      EXPECT_TRUE(interleaver.Deposit(levels, &data).ok());
      EXPECT_TRUE(decomposer.Recompose(&data).ok());
      for (std::size_t n = 0; n < row_sums.size(); ++n) {
        row_sums[n] += std::abs(data.vector()[n]);
      }
      levels[l][i] = 0.0;
    }
    norms[l] = *std::max_element(row_sums.begin(), row_sums.end());
  }
  return norms;
}

int MaxSteps(const Dims3& dims) {
  int steps = HierarchyOptions::kDefaultMaxSteps;
  for (std::size_t n : {dims.nx, dims.ny, dims.nz}) {
    if (n > 1) {
      steps = std::min(steps, MaxStepsForExtent(n));
    }
  }
  return steps;
}

class TheoryBoundTest : public ::testing::Test {
 protected:
  // Thousands of recompositions of tiny grids run fastest on one thread.
  TheoryBoundTest() : ambient_threads_(GlobalThreadCount()) {
    SetGlobalThreadCount(1);
  }
  ~TheoryBoundTest() override { SetGlobalThreadCount(ambient_threads_); }

  const int ambient_threads_;
};

TEST_F(TheoryBoundTest, LevelConstantsDominateExactOperatorNorms) {
  const Dims3 grids[] = {
      {9, 1, 1},  {17, 1, 1},  {33, 1, 1},  {65, 1, 1}, {129, 1, 1},
      {9, 9, 1},  {17, 17, 1}, {33, 33, 1}, {5, 5, 5},  {9, 9, 9},
      {17, 17, 17}, {9, 17, 5},
  };
  const TheoryEstimator theory;
  int checked = 0;
  for (const Dims3& dims : grids) {
    for (int steps = 1; steps <= MaxSteps(dims); ++steps) {
      HierarchyOptions options;
      options.target_steps = steps;
      auto hierarchy = GridHierarchy::Create(dims, options);
      ASSERT_TRUE(hierarchy.ok()) << hierarchy.status().ToString();
      RefactoredField field;
      field.hierarchy = hierarchy.value();
      for (bool correction : {true, false}) {
        const std::vector<double> exact =
            ExactLevelNorms(hierarchy.value(), correction);
        // The coarsest level only interpolates, a partition of unity.
        EXPECT_NEAR(exact[0], 1.0, 1e-12);
        for (int l = 0; l < hierarchy.value().num_levels(); ++l) {
          SCOPED_TRACE(testing::Message()
                       << dims.nx << "x" << dims.ny << "x" << dims.nz
                       << " steps " << steps << " correction " << correction
                       << " level " << l);
          EXPECT_GT(exact[l], 0.0);
          EXPECT_GE(theory.LevelConstant(field, l), exact[l]);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 100);
}

}  // namespace
}  // namespace mgardp
