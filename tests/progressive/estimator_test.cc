#include "progressive/error_estimator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mgardp {
namespace {

Array3Dd WavyField(Dims3 dims, std::uint64_t seed = 3) {
  Rng rng(seed);
  Array3Dd a(dims);
  for (std::size_t i = 0; i < dims.nx; ++i) {
    for (std::size_t j = 0; j < dims.ny; ++j) {
      for (std::size_t k = 0; k < dims.nz; ++k) {
        a(i, j, k) = std::cos(0.7 * i) * std::sin(0.4 * j + 0.2 * k) +
                     0.1 * rng.NextGaussian();
      }
    }
  }
  return a;
}

class EstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_ = WavyField(Dims3{17, 17, 17});
    auto result = Refactorer().Refactor(original_);
    ASSERT_TRUE(result.ok());
    field_ = std::move(result).value();
  }

  Array3Dd original_;
  RefactoredField field_;
};

TEST_F(EstimatorTest, TheoryConstantsDecreaseWithLevel) {
  TheoryEstimator est;
  for (int l = 1; l < field_.num_levels(); ++l) {
    EXPECT_LT(est.LevelConstant(field_, l), est.LevelConstant(field_, l - 1));
  }
  // Finest level still has amplification > 1.
  EXPECT_GT(est.LevelConstant(field_, field_.num_levels() - 1), 1.0);
}

TEST_F(EstimatorTest, TheoryEstimateIsConservative) {
  // The theory bound must dominate the actual reconstruction error for any
  // prefix -- this is the defining property of Equation 6.
  TheoryEstimator est;
  const int L = field_.num_levels();
  std::vector<std::vector<int>> prefixes = {
      std::vector<int>(L, 0),  std::vector<int>(L, 4),
      std::vector<int>(L, 12), std::vector<int>(L, 32),
      {32, 24, 16, 8, 4},      {4, 8, 12, 16, 20},
  };
  for (const auto& prefix : prefixes) {
    auto rec = ReconstructFromPrefix(field_, prefix);
    ASSERT_TRUE(rec.ok());
    const double actual = MaxAbsError(original_.vector(),
                                      rec.value().vector());
    const double estimate = est.Estimate(field_, prefix);
    EXPECT_GE(estimate, actual) << "prefix[0]=" << prefix[0];
  }
}

TEST_F(EstimatorTest, TheoryEstimateIsOverPessimistic) {
  // ...and by a large factor (the paper's Fig. 2 shows orders of
  // magnitude): at a mid-depth prefix the estimate should exceed the actual
  // error by at least 10x on this data.
  TheoryEstimator est;
  const std::vector<int> prefix(field_.num_levels(), 12);
  auto rec = ReconstructFromPrefix(field_, prefix);
  ASSERT_TRUE(rec.ok());
  const double actual =
      MaxAbsError(original_.vector(), rec.value().vector());
  ASSERT_GT(actual, 0.0);
  EXPECT_GT(est.Estimate(field_, prefix) / actual, 10.0);
}

TEST_F(EstimatorTest, EstimateDecaysInPrefixDepth) {
  // Windowed decay: nega-binary prefixes allow transient bumps, but three
  // more planes always reduce the estimate.
  TheoryEstimator est;
  const int L = field_.num_levels();
  std::vector<double> curve;
  for (int b = 0; b <= 32; ++b) {
    curve.push_back(est.Estimate(field_, std::vector<int>(L, b)));
  }
  for (int b = 3; b <= 32; ++b) {
    EXPECT_LE(curve[b], curve[b - 3] + 1e-300) << "b=" << b;
  }
  EXPECT_LT(curve[32], 1e-6 * curve[0]);
}

TEST_F(EstimatorTest, OracleMatchesActualError) {
  OracleEstimator oracle(&original_);
  const std::vector<int> prefix(field_.num_levels(), 8);
  auto rec = ReconstructFromPrefix(field_, prefix);
  ASSERT_TRUE(rec.ok());
  const double actual =
      MaxAbsError(original_.vector(), rec.value().vector());
  EXPECT_DOUBLE_EQ(oracle.Estimate(field_, prefix), actual);
}

TEST_F(EstimatorTest, SlackScalesTheEstimate) {
  TheoryEstimator tight(1.0), loose(4.0);
  const std::vector<int> prefix(field_.num_levels(), 8);
  EXPECT_NEAR(loose.Estimate(field_, prefix),
              4.0 * tight.Estimate(field_, prefix), 1e-9);
}

TEST(TermTableTest, SumClampsEachLevelToItsPlaneRange) {
  TermTable table;
  table.term = {{8.0, 4.0, 2.0}, {1.0, 0.5}};
  EXPECT_EQ(table.Sum({0, 0}), 9.0);
  EXPECT_EQ(table.Sum({2, 1}), 2.5);
  // Below 0 reads term 0, beyond the last plane reads the last term.
  EXPECT_EQ(table.Sum({-3, 7}), 8.5);
  EXPECT_EQ(table.Sum({5, -1}), 3.0);
}

TEST(TermTableTest, SumScalesTheLevelSumOnce) {
  TermTable table;
  table.term = {{0.1, 0.0}, {0.2, 0.0}, {0.3, 0.0}};
  table.scale = 3.0;
  // (0.1 + 0.2) + 0.3 in level order, then one multiply by the scale:
  // scaling each term first would round differently.
  EXPECT_EQ(table.Sum({0, 0, 0}), ((0.0 + 0.1) + 0.2 + 0.3) * 3.0);
  EXPECT_NE(table.Sum({0, 0, 0}), 0.1 * 3.0 + 0.2 * 3.0 + 0.3 * 3.0);
  EXPECT_EQ(table.Sum({1, 0, 1}), (0.0 + 0.0 + 0.2 + 0.0) * 3.0);
  EXPECT_EQ(table.Sum({1, 1, 1}), 0.0);
}

TEST_F(EstimatorTest, TheoryTermsSumEqualsEstimate) {
  TheoryEstimator est;
  const auto terms = est.Terms(field_);
  ASSERT_TRUE(terms.has_value());
  EXPECT_EQ(terms->scale, 1.0);
  const int L = field_.num_levels();
  ASSERT_EQ(static_cast<int>(terms->term.size()), L);
  for (int l = 0; l < L; ++l) {
    EXPECT_EQ(terms->term[l].size(), field_.level_errors[l].max_abs.size());
  }
  const std::vector<std::vector<int>> prefixes = {
      std::vector<int>(L, 0),  std::vector<int>(L, 4),
      std::vector<int>(L, 12), std::vector<int>(L, 32),
      {32, 24, 16, 8, 4},      {4, 8, 12, 16, 20},
      {-1, 0, 40, 2, 99},
  };
  for (const auto& prefix : prefixes) {
    EXPECT_EQ(terms->Sum(prefix), est.Estimate(field_, prefix));
  }
}

TEST_F(EstimatorTest, SlackScalesTheTheoryTerms) {
  // Slacks a power of two apart give terms exactly that factor apart.
  const auto tight = TheoryEstimator(1.0).Terms(field_);
  const auto loose = TheoryEstimator(4.0).Terms(field_);
  ASSERT_TRUE(tight.has_value() && loose.has_value());
  ASSERT_EQ(tight->term.size(), loose->term.size());
  for (std::size_t l = 0; l < tight->term.size(); ++l) {
    ASSERT_EQ(tight->term[l].size(), loose->term[l].size());
    for (std::size_t b = 0; b < tight->term[l].size(); ++b) {
      EXPECT_EQ(loose->term[l][b], 4.0 * tight->term[l][b]);
    }
  }
}

TEST_F(EstimatorTest, NonSeparableEstimatorsOfferNoTable) {
  // The RMS bound takes a square root of the level sum and the oracle
  // reconstructs: neither is a per-level sum, so both plan per candidate.
  EXPECT_FALSE(SNormEstimator().Terms(field_).has_value());
  EXPECT_FALSE(OracleEstimator(&original_).Terms(field_).has_value());
}

TEST_F(EstimatorTest, Names) {
  EXPECT_EQ(TheoryEstimator().name(), "theory");
  EXPECT_EQ(OracleEstimator(&original_).name(), "oracle");
}

}  // namespace
}  // namespace mgardp
