#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/rng.h"

namespace mgardp {
namespace {

TEST(StatsTest, SummarizeBasics) {
  FieldSummary s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.range(), 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(s.abs_max, 4.0);
}

TEST(StatsTest, SummarizeEmpty) {
  FieldSummary s = Summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.range(), 0.0);
}

TEST(StatsTest, SummarizeConstantField) {
  FieldSummary s = Summarize(std::vector<double>(100, 7.5));
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.skewness, 0.0);
  EXPECT_DOUBLE_EQ(s.range(), 0.0);
}

TEST(StatsTest, SkewnessSign) {
  // Right-skewed sample.
  FieldSummary s = Summarize({0.0, 0.0, 0.0, 0.0, 10.0});
  EXPECT_GT(s.skewness, 0.0);
}

TEST(StatsTest, GaussianSampleMoments) {
  Rng rng(5);
  std::vector<double> xs(100000);
  for (double& x : xs) {
    x = rng.NextGaussian() * 2.0 + 1.0;
  }
  FieldSummary s = Summarize(xs);
  EXPECT_NEAR(s.mean, 1.0, 0.05);
  EXPECT_NEAR(s.stddev, 2.0, 0.05);
  EXPECT_NEAR(s.skewness, 0.0, 0.05);
  EXPECT_NEAR(s.kurtosis, 0.0, 0.1);
}

TEST(StatsTest, MaxAbsError) {
  EXPECT_DOUBLE_EQ(MaxAbsError({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(MaxAbsError({1, 2, 3}, {1, 5, 3}), 3.0);
  EXPECT_DOUBLE_EQ(MaxAbsError({-1, 0}, {1, 0}), 2.0);
}

TEST(StatsTest, RmsError) {
  EXPECT_DOUBLE_EQ(RmsError({0, 0}, {3, 4}), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(RmsError({}, {}), 0.0);
}

TEST(StatsTest, PsnrPerfectIsInfinite) {
  EXPECT_TRUE(std::isinf(Psnr({1, 2, 3}, {1, 2, 3})));
}

TEST(StatsTest, PsnrKnownValue) {
  // range = 10, rmse = 1 -> 20 dB.
  std::vector<double> a{0, 10};
  std::vector<double> b{1, 9};
  EXPECT_NEAR(Psnr(a, b), 20.0, 1e-9);
}

TEST(StatsTest, QuantileEndpointsAndMedian) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v{0.0, 1.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 0.25);
}

TEST(StatsTest, AbsQuantileSketchSortedAndSized) {
  Rng rng(3);
  std::vector<double> v(1000);
  for (double& x : v) {
    x = rng.NextGaussian();
  }
  const auto sketch = AbsQuantileSketch(v, 16);
  ASSERT_EQ(sketch.size(), 16u);
  for (std::size_t i = 1; i < sketch.size(); ++i) {
    EXPECT_LE(sketch[i - 1], sketch[i]);
  }
  EXPECT_GE(sketch.front(), 0.0);
}

TEST(StatsTest, AbsQuantileSketchEmptyInput) {
  const auto sketch = AbsQuantileSketch({}, 8);
  ASSERT_EQ(sketch.size(), 8u);
  for (double s : sketch) {
    EXPECT_EQ(s, 0.0);
  }
}

// The definition AbsQuantileSketch must reproduce: sort every |v|, then
// interpolate between neighbouring order statistics.
std::vector<double> SortedAbsSketch(const std::vector<double>& values,
                                    std::size_t bins) {
  std::vector<double> sorted(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    sorted[i] = std::fabs(values[i]);
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> sketch(bins, 0.0);
  if (sorted.empty()) {
    return sketch;
  }
  for (std::size_t b = 0; b < bins; ++b) {
    const double q = (static_cast<double>(b) + 0.5) / static_cast<double>(bins);
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    sketch[b] = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }
  return sketch;
}

// Bit-for-bit equality with the sort-based definition at several bin
// counts, including more bins than values.
void ExpectSketchExact(const std::vector<double>& values) {
  SCOPED_TRACE("n=" + std::to_string(values.size()));
  for (std::size_t bins : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                           std::size_t{32}, std::size_t{100}}) {
    const auto got = AbsQuantileSketch(values, bins);
    const auto want = SortedAbsSketch(values, bins);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < bins; ++b) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[b]),
                std::bit_cast<std::uint64_t>(want[b]))
          << "bins=" << bins << " b=" << b << " got=" << got[b]
          << " want=" << want[b];
    }
  }
}

TEST(StatsTest, AbsQuantileSketchMatchesSortSmallCounts) {
  Rng rng(21);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{63}, std::size_t{64}, std::size_t{65}}) {
    std::vector<double> v(n);
    for (double& x : v) {
      x = rng.NextGaussian() * 10.0;
    }
    ExpectSketchExact(v);
  }
}

TEST(StatsTest, AbsQuantileSketchMatchesSortDuplicatesAndConstants) {
  Rng rng(22);
  std::vector<double> few_values(5000);
  for (double& x : few_values) {
    x = static_cast<double>(static_cast<int>(rng.NextBounded(7)) - 3) * 0.25;
  }
  ExpectSketchExact(few_values);
  ExpectSketchExact(std::vector<double>(1000, -2.5));
  ExpectSketchExact(std::vector<double>(1000, 0.0));
}

TEST(StatsTest, AbsQuantileSketchMatchesSortSignedZerosAndDenormals) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> v;
  for (int i = 0; i < 300; ++i) {
    v.push_back(i % 2 == 0 ? 0.0 : -0.0);
    v.push_back((i % 3 == 0 ? -1.0 : 1.0) * denorm * (i % 17));
    v.push_back(std::numeric_limits<double>::min() * (i % 5));
    v.push_back(std::ldexp(1.0, -1030 + i % 40));
  }
  ExpectSketchExact(v);
}

TEST(StatsTest, AbsQuantileSketchMatchesSortAcrossMagnitudes) {
  // ~600 binary orders of magnitude, so the values land in thousands of
  // radix buckets; and a run packed inside one bucket, so the selection
  // inside a bucket decides every rank.
  Rng rng(23);
  std::vector<double> wide(20000);
  for (double& x : wide) {
    const int exponent = static_cast<int>(rng.NextBounded(600)) - 300;
    x = (rng.NextUint64() & 1 ? -1.0 : 1.0) *
        std::ldexp(rng.Uniform(1.0, 2.0), exponent);
  }
  ExpectSketchExact(wide);
  std::vector<double> one_bucket(20000);
  for (double& x : one_bucket) {
    x = 1.0 + rng.Uniform(0.0, 1.0 / 32.0);
  }
  ExpectSketchExact(one_bucket);
  std::vector<double> gaussian(100000);
  for (double& x : gaussian) {
    x = rng.NextGaussian();
  }
  ExpectSketchExact(gaussian);
}

TEST(StatsTest, PearsonCorrelation) {
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> b{2, 4, 6, 8};
  std::vector<double> c{8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
  EXPECT_EQ(PearsonCorrelation(a, std::vector<double>(4, 1.0)), 0.0);
}

}  // namespace
}  // namespace mgardp
