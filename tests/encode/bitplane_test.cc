#include "encode/bitplane.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"
#include "util/stats.h"

namespace mgardp {
namespace {

std::vector<double> RandomCoefs(std::size_t n, double scale,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) {
    x = scale * rng.NextGaussian();
  }
  return v;
}

TEST(BitplaneTest, FullDecodeIsNearLossless) {
  BitplaneEncoder enc(32);
  auto coefs = RandomCoefs(1000, 3.0, 1);
  auto set = enc.Encode(coefs, nullptr);
  ASSERT_TRUE(set.ok());
  auto decoded = enc.Decode(set.value(), 32);
  ASSERT_TRUE(decoded.ok());
  // 32 planes with exponent e give quantization step 2^(e-30).
  const double step = std::ldexp(1.0, set.value().exponent - 30);
  EXPECT_LE(MaxAbsError(coefs, decoded.value()), step);
}

TEST(BitplaneTest, ZeroPlanesDecodesToZero) {
  BitplaneEncoder enc(32);
  auto coefs = RandomCoefs(100, 1.0, 2);
  auto set = enc.Encode(coefs, nullptr);
  ASSERT_TRUE(set.ok());
  auto decoded = enc.Decode(set.value(), 0);
  ASSERT_TRUE(decoded.ok());
  for (double v : decoded.value()) {
    EXPECT_EQ(v, 0.0);
  }
}

TEST(BitplaneTest, ErrorDecaysWithPlanes) {
  // Nega-binary prefixes are NOT strictly monotone: keeping only the top
  // digit of a coefficient can overshoot its value by up to 2x (e.g.
  // +2^k encodes as 2^(k+1) - 2^k, and the positive digit alone doubles
  // it). What must hold: a one-plane bump never exceeds 3x, and adding two
  // more planes always wins the overshoot back.
  BitplaneEncoder enc(32);
  auto coefs = RandomCoefs(2000, 10.0, 3);
  LevelErrorStats stats;
  auto set = enc.Encode(coefs, &stats);
  ASSERT_TRUE(set.ok());
  ASSERT_EQ(stats.max_abs.size(), 33u);
  for (std::size_t b = 1; b < stats.max_abs.size(); ++b) {
    EXPECT_LE(stats.max_abs[b], 3.0 * stats.max_abs[b - 1] + 1e-300)
        << "b=" << b;
    EXPECT_LE(stats.mse[b], 9.0 * stats.mse[b - 1] + 1e-300) << "b=" << b;
  }
  for (std::size_t b = 3; b < stats.max_abs.size(); ++b) {
    EXPECT_LE(stats.max_abs[b], stats.max_abs[b - 3] + 1e-300) << "b=" << b;
  }
  // No planes -> error is max |coef|.
  double max_abs = 0.0;
  for (double c : coefs) {
    max_abs = std::max(max_abs, std::fabs(c));
  }
  EXPECT_DOUBLE_EQ(stats.max_abs[0], max_abs);
  // Full decode error is far below the starting error.
  EXPECT_LT(stats.max_abs[32], 1e-6 * stats.max_abs[0]);
}

TEST(BitplaneTest, ErrorMatrixMatchesActualDecode) {
  BitplaneEncoder enc(24);
  auto coefs = RandomCoefs(500, 2.0, 4);
  LevelErrorStats stats;
  auto set = enc.Encode(coefs, &stats);
  ASSERT_TRUE(set.ok());
  for (int b : {0, 1, 5, 12, 24}) {
    auto decoded = enc.Decode(set.value(), b);
    ASSERT_TRUE(decoded.ok());
    EXPECT_NEAR(MaxAbsError(coefs, decoded.value()), stats.max_abs[b], 1e-15)
        << "b=" << b;
  }
}

TEST(BitplaneTest, PrefixErrorBoundedByPlaneSignificance) {
  // After b planes the remaining digits have magnitudes < 2^(B-b) in
  // fixed-point, i.e. < 2^(exponent - b + 2) in value.
  BitplaneEncoder enc(32);
  auto coefs = RandomCoefs(1000, 1.0, 5);
  LevelErrorStats stats;
  auto set = enc.Encode(coefs, &stats);
  ASSERT_TRUE(set.ok());
  for (int b = 0; b <= 32; ++b) {
    const double bound = std::ldexp(1.0, set.value().exponent + 2 - b);
    EXPECT_LE(stats.max_abs[b], bound) << "b=" << b;
  }
}

TEST(BitplaneTest, HandlesAllZeroInput) {
  BitplaneEncoder enc(32);
  std::vector<double> zeros(64, 0.0);
  LevelErrorStats stats;
  auto set = enc.Encode(zeros, &stats);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(stats.max_abs[0], 0.0);
  auto decoded = enc.Decode(set.value(), 16);
  ASSERT_TRUE(decoded.ok());
  for (double v : decoded.value()) {
    EXPECT_EQ(v, 0.0);
  }
}

TEST(BitplaneTest, HandlesEmptyInput) {
  BitplaneEncoder enc(32);
  auto set = enc.Encode({}, nullptr);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set.value().count, 0u);
  auto decoded = enc.Decode(set.value(), 32);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(BitplaneTest, HandlesDenormalScaleValues) {
  BitplaneEncoder enc(32);
  auto coefs = RandomCoefs(200, 1e-200, 6);
  auto set = enc.Encode(coefs, nullptr);
  ASSERT_TRUE(set.ok());
  auto decoded = enc.Decode(set.value(), 32);
  ASSERT_TRUE(decoded.ok());
  const double step = std::ldexp(1.0, set.value().exponent - 30);
  EXPECT_LE(MaxAbsError(coefs, decoded.value()), step);
}

TEST(BitplaneTest, HandlesMixedMagnitudes) {
  std::vector<double> coefs{1e6, -1e-6, 0.0, 3.14159, -2.71828e3};
  BitplaneEncoder enc(40);
  LevelErrorStats stats;
  auto set = enc.Encode(coefs, &stats);
  ASSERT_TRUE(set.ok());
  auto decoded = enc.Decode(set.value(), 40);
  ASSERT_TRUE(decoded.ok());
  const double step = std::ldexp(1.0, set.value().exponent - 38);
  EXPECT_LE(MaxAbsError(coefs, decoded.value()), step);
}

TEST(BitplaneTest, RejectsOutOfRangePrefix) {
  BitplaneEncoder enc(16);
  auto set = enc.Encode(RandomCoefs(10, 1.0, 7), nullptr);
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(enc.Decode(set.value(), -1).ok());
  EXPECT_FALSE(enc.Decode(set.value(), 17).ok());
}

// A progressive fetch holds only the first b planes: that set decodes
// exactly as the full set does at prefix b.
TEST(BitplaneTest, PrefixOnlySetDecodesLikeFullSet) {
  BitplaneEncoder enc(32);
  auto set = enc.Encode(RandomCoefs(777, 5.0, 8), nullptr);
  ASSERT_TRUE(set.ok());
  for (int b : {0, 1, 5, 17, 31, 32}) {
    SCOPED_TRACE("prefix=" + std::to_string(b));
    BitplaneSet fetched = set.value();
    fetched.planes.resize(b);
    auto partial = enc.Decode(fetched, b);
    auto full = enc.Decode(set.value(), b);
    ASSERT_TRUE(partial.ok() && full.ok());
    EXPECT_EQ(partial.value(), full.value());
  }
}

// Planes past the prefix are never read: rewriting their digits leaves the
// decoded prefix unchanged.
TEST(BitplaneTest, DecodeIgnoresPlanesPastThePrefix) {
  BitplaneEncoder enc(32);
  auto set = enc.Encode(RandomCoefs(500, 2.0, 9), nullptr);
  ASSERT_TRUE(set.ok());
  for (int b : {0, 3, 12, 31}) {
    SCOPED_TRACE("prefix=" + std::to_string(b));
    BitplaneSet scrambled = set.value();
    for (int p = b; p < 32; ++p) {
      std::string& plane = scrambled.planes[p];
      for (std::size_t i = 0; i < plane.size(); ++i) {
        plane[i] = static_cast<char>(~plane[i] ^ static_cast<char>(i * 37));
      }
    }
    auto a = enc.Decode(scrambled, b);
    auto c = enc.Decode(set.value(), b);
    ASSERT_TRUE(a.ok() && c.ok());
    EXPECT_EQ(a.value(), c.value());
  }
}

class BitplanePrefixSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitplanePrefixSweep, DecodeErrorWithinErrorMatrix) {
  const int planes = GetParam();
  BitplaneEncoder enc(32);
  auto coefs = RandomCoefs(800, 7.0, 100 + planes);
  LevelErrorStats stats;
  auto set = enc.Encode(coefs, &stats);
  ASSERT_TRUE(set.ok());
  auto decoded = enc.Decode(set.value(), planes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_NEAR(MaxAbsError(coefs, decoded.value()), stats.max_abs[planes],
              1e-15);
}

INSTANTIATE_TEST_SUITE_P(AllPrefixes, BitplanePrefixSweep,
                         ::testing::Values(0, 1, 2, 4, 8, 16, 24, 31, 32));

}  // namespace
}  // namespace mgardp
