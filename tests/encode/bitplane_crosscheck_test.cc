// Bit-identity cross-check of the word-parallel bit-plane kernels against
// the scalar reference implementation (internal::EncodeScalar /
// internal::DecodeScalar in bitplane_reference.cc, the pre-transpose code
// kept verbatim), plus corrupt-payload regression tests for Decode's shape
// validation.

#include "encode/bitplane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bitplane_reference.h"
#include "encode/negabinary.h"
#include "util/rng.h"

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

// EXPECT wrapper: every plane payload byte, error-matrix entry, and decoded
// coefficient must match the scalar reference exactly (==, not NEAR).
void ExpectBitIdentical(const std::vector<double>& coefs, int num_planes) {
  SCOPED_TRACE("num_planes=" + std::to_string(num_planes) +
               " count=" + std::to_string(coefs.size()));
  BitplaneEncoder enc(num_planes);
  LevelErrorStats fast_stats, ref_stats;
  auto fast = enc.Encode(coefs, &fast_stats);
  auto ref = internal::EncodeScalar(coefs, num_planes, &ref_stats);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(fast.value().num_planes, ref.value().num_planes);
  ASSERT_EQ(fast.value().exponent, ref.value().exponent);
  ASSERT_EQ(fast.value().count, ref.value().count);
  ASSERT_EQ(fast.value().planes.size(), ref.value().planes.size());
  for (std::size_t p = 0; p < ref.value().planes.size(); ++p) {
    EXPECT_EQ(fast.value().planes[p], ref.value().planes[p]) << "plane " << p;
  }
  ASSERT_EQ(fast_stats.max_abs.size(), ref_stats.max_abs.size());
  for (std::size_t b = 0; b < ref_stats.max_abs.size(); ++b) {
    EXPECT_EQ(fast_stats.max_abs[b], ref_stats.max_abs[b]) << "b=" << b;
    EXPECT_EQ(fast_stats.mse[b], ref_stats.mse[b]) << "b=" << b;
  }
  // Encode without stats must emit the same planes as with stats.
  auto no_stats = enc.Encode(coefs, nullptr);
  ASSERT_TRUE(no_stats.ok());
  for (std::size_t p = 0; p < ref.value().planes.size(); ++p) {
    EXPECT_EQ(no_stats.value().planes[p], ref.value().planes[p]);
  }
  // Decode at a spread of prefixes, including both endpoints.
  for (int b : {0, 1, num_planes / 2, num_planes - 1, num_planes}) {
    auto fast_dec = enc.Decode(ref.value(), b);
    auto ref_dec = internal::DecodeScalar(ref.value(), b);
    ASSERT_TRUE(fast_dec.ok());
    ASSERT_TRUE(ref_dec.ok());
    ASSERT_EQ(fast_dec.value().size(), ref_dec.value().size());
    for (std::size_t i = 0; i < ref_dec.value().size(); ++i) {
      ASSERT_EQ(fast_dec.value()[i], ref_dec.value()[i])
          << "prefix=" << b << " i=" << i;
    }
  }
}

// Transposes `a` and checks every bit against the definition (bit d of
// word r lands at bit r of word d), then that a second transpose restores
// it.
void ExpectTrueTransposeAndInvolution(const std::uint64_t a[64]) {
  std::uint64_t want[64] = {};
  for (int r = 0; r < 64; ++r) {
    for (int d = 0; d < 64; ++d) {
      want[d] |= ((a[r] >> d) & 1u) << r;
    }
  }
  std::uint64_t t[64];
  std::memcpy(t, a, sizeof(t));
  internal::Transpose64x64(t);
  for (int d = 0; d < 64; ++d) {
    ASSERT_EQ(t[d], want[d]) << "transposed word " << d;
  }
  internal::Transpose64x64(t);
  for (int r = 0; r < 64; ++r) {
    ASSERT_EQ(t[r], a[r]) << "involution broken at row " << r;
  }
}

TEST(BitplaneCrossCheck, Transpose64x64IsTrueTransposeAndInvolution) {
  std::uint64_t a[64];
  for (std::uint64_t seed : {11, 12, 13, 14, 15}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    for (auto& w : a) {
      w = rng.NextUint64();
    }
    ExpectTrueTransposeAndInvolution(a);
  }
  // Every single-set-bit matrix: each bit must travel alone to its mirror.
  for (int r = 0; r < 64; ++r) {
    for (int d = 0; d < 64; ++d) {
      SCOPED_TRACE("bit r=" + std::to_string(r) + " d=" + std::to_string(d));
      std::memset(a, 0, sizeof(a));
      a[r] = std::uint64_t{1} << d;
      ExpectTrueTransposeAndInvolution(a);
    }
  }
  // A matrix whose words from `rows` on are zero (a decode with at most 32
  // planes) may skip the upper words' rounds; the result is unchanged.
  for (int rows : {1, 5, 31, 32}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    Rng rng(100 + rows);
    for (int r = 0; r < 64; ++r) {
      a[r] = r < rows ? rng.NextUint64() : 0;
    }
    std::uint64_t full[64], skip[64];
    std::memcpy(full, a, sizeof(a));
    std::memcpy(skip, a, sizeof(a));
    internal::Transpose64x64(full);
    internal::Transpose64x64(skip, rows);
    for (int d = 0; d < 64; ++d) {
      ASSERT_EQ(skip[d], full[d]) << "word " << d;
    }
  }
  // An all-ones row becomes an all-ones column.
  for (int r = 0; r < 64; ++r) {
    SCOPED_TRACE("ones row=" + std::to_string(r));
    std::memset(a, 0, sizeof(a));
    a[r] = ~std::uint64_t{0};
    ExpectTrueTransposeAndInvolution(a);
  }
}

TEST(BitplaneCrossCheck, AllNumPlanesRandomFields) {
  // The satellite's exhaustive sweep: every legal num_planes, with a
  // coefficient count that is not a multiple of 64 (tail block).
  for (int num_planes = 2; num_planes <= 60; ++num_planes) {
    ExpectBitIdentical(RandomCoefs(517, 4.0, 1000 + num_planes), num_planes);
  }
}

TEST(BitplaneCrossCheck, OddCountsAndBlockBoundaries) {
  // Counts straddling the 64-coefficient block and 8192-coefficient chunk
  // boundaries, where the transpose tail handling and the chunked stats
  // reduce could disagree with the scalar path.
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{63},
                        std::size_t{64}, std::size_t{65}, std::size_t{127},
                        std::size_t{128}, std::size_t{8191},
                        std::size_t{8192}, std::size_t{8193},
                        std::size_t{16384 + 37}, std::size_t{3 * 8192 + 37}}) {
    ExpectBitIdentical(RandomCoefs(n, 2.5, 7 * n + 3), 32);
  }
}

TEST(BitplaneCrossCheck, DecodeMatchesScalarAtEveryPrefix) {
  // Several kCoefGrain chunks and a partial last block; every prefix from
  // nothing to all planes, compared byte for byte.
  const std::vector<double> coefs = RandomCoefs(3 * 8192 + 37, 3.0, 404);
  for (int num_planes : {17, 32, 60}) {
    BitplaneEncoder enc(num_planes);
    auto set = enc.Encode(coefs, nullptr);
    ASSERT_TRUE(set.ok());
    for (int b = 0; b <= num_planes; ++b) {
      auto fast = enc.Decode(set.value(), b);
      auto ref = internal::DecodeScalar(set.value(), b);
      ASSERT_TRUE(fast.ok());
      ASSERT_TRUE(ref.ok());
      ASSERT_EQ(fast.value().size(), ref.value().size());
      EXPECT_EQ(std::memcmp(fast.value().data(), ref.value().data(),
                            ref.value().size() * sizeof(double)),
                0)
          << "num_planes=" << num_planes << " prefix=" << b;
    }
  }
}

TEST(BitplaneCrossCheck, EmptyPrefixDecodesToPositiveZero) {
  // An all-negative level: a zero-plane decode must still give +0.0 for
  // every coefficient, as converting the all-zero digit words does.
  std::vector<double> coefs = RandomCoefs(1000, 2.0, 77);
  for (double& c : coefs) {
    c = -std::fabs(c) - 0.5;
  }
  BitplaneEncoder enc(32);
  auto set = enc.Encode(coefs, nullptr);
  ASSERT_TRUE(set.ok());
  auto decoded = enc.Decode(set.value(), 0);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), coefs.size());
  for (double v : decoded.value()) {
    ASSERT_EQ(v, 0.0);
    ASSERT_FALSE(std::signbit(v));
  }
  // Validation still runs: a missing plane fails even at prefix 0.
  BitplaneSet bad = set.value();
  bad.planes[5].pop_back();
  EXPECT_FALSE(enc.Decode(bad, 0).ok());
}

TEST(BitplaneCrossCheck, AllZeroAndConstantLevels) {
  ExpectBitIdentical(std::vector<double>(300, 0.0), 32);
  ExpectBitIdentical(std::vector<double>(300, 1.0), 32);
  ExpectBitIdentical(std::vector<double>(300, -0.125), 17);
  ExpectBitIdentical({}, 32);
}

TEST(BitplaneCrossCheck, MixedMagnitudes) {
  ExpectBitIdentical({1e6, -1e-6, 0.0, 3.14159, -2.71828e3, 1e-200, -1e5},
                     48);
}

// Log-normal magnitudes with random signs: a few coefficients near the
// level maximum set the exponent, most sit many binary orders below it.
std::vector<double> HeavyTailedCoefs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.NextGaussian() * std::exp(4.0 * rng.NextGaussian());
  }
  return v;
}

// Largest |prefix value| over every coefficient and prefix length, in
// quantized units: the integers the error matrix converts to double.
double MaxPrefixMagnitude(const std::vector<double>& coefs, int num_planes) {
  BitplaneEncoder enc(num_planes);
  auto set = enc.Encode(coefs, nullptr);
  EXPECT_TRUE(set.ok());
  const double scale =
      std::ldexp(1.0, num_planes - 2 - set.value().exponent);
  double max_mag = 0.0;
  for (const double c : coefs) {
    const std::uint64_t w = ToNegabinary(std::llround(c * scale));
    for (int b = 1; b <= num_planes; ++b) {
      const std::uint64_t keep = ~std::uint64_t{0} << (num_planes - b);
      max_mag = std::max(
          max_mag, std::fabs(static_cast<double>(FromNegabinary(w & keep))));
    }
  }
  return max_mag;
}

TEST(BitplaneCrossCheck, PrefixValuesBeyondTwoToThe53) {
  // Quantized values are bounded by 2^(num_planes - 2), so at 53 and 54
  // planes the prefix values stay within 2^53 (exact as doubles), and from
  // 55 planes the largest exceed it and their int64 -> double conversion
  // rounds. The plane-vector kernel must round exactly as the scalar walk
  // does on both sides of that edge, across several reduce chunks.
  for (int num_planes : {53, 54, 55, 60}) {
    auto coefs = HeavyTailedCoefs(3 * 8192 + 37, 500 + num_planes);
    // A coefficient at 3/4 of the level's power-of-two bound quantizes
    // above 2/3 * 2^(num_planes - 2), which sets the top digit, so its
    // shortest prefixes reach 2^(num_planes - 1) or 2^(num_planes - 2).
    double max_abs = 0.0;
    for (const double c : coefs) {
      max_abs = std::max(max_abs, std::fabs(c));
    }
    coefs[coefs.size() / 2] = 0.75 * std::exp2(std::ceil(std::log2(max_abs)));
    if (num_planes >= 55) {
      ASSERT_GT(MaxPrefixMagnitude(coefs, num_planes), std::ldexp(1.0, 53))
          << "num_planes=" << num_planes;
    }
    ExpectBitIdentical(coefs, num_planes);
  }
}

TEST(BitplaneCrossCheck, ThreadCountDoesNotChangeOutput) {
  // MGARDP_THREADS is read per pool construction; the encoder must emit
  // bit-identical payloads and error matrices regardless. This test runs
  // under whatever thread count the environment set (CI sweeps it via the
  // bitplane_tsan target and default jobs); here we pin the reference by
  // comparing against the scalar path, which shares the deterministic
  // reduce contract.
  const char* env = std::getenv("MGARDP_THREADS");
  SCOPED_TRACE(std::string("MGARDP_THREADS=") + (env ? env : "(default)"));
  ExpectBitIdentical(RandomCoefs(20000, 3.0, 99), 32);
}

// ---------------------------------------------------------------------------
// Corrupt-payload regression tests: Decode must validate every plane it
// could index.

BitplaneSet ValidSet() {
  BitplaneEncoder enc(8);
  auto set = enc.Encode(RandomCoefs(100, 1.0, 5), nullptr);
  EXPECT_TRUE(set.ok());
  return set.value();
}

TEST(BitplaneCorruptPayload, DecodeRejectsShortPlaneInsidePrefix) {
  BitplaneEncoder enc(8);
  auto set = ValidSet();
  set.planes[3].resize(set.planes[3].size() - 1);
  EXPECT_FALSE(enc.Decode(set, 8).ok());
}

TEST(BitplaneCorruptPayload, DecodeRejectsShortPlaneBeyondPrefix) {
  // The historical bug: only the first prefix_planes payloads were
  // validated, so a truncated later plane slipped through. The set is
  // corrupt either way; Decode must say so.
  BitplaneEncoder enc(8);
  auto set = ValidSet();
  set.planes.back().clear();
  EXPECT_FALSE(enc.Decode(set, 2).ok());
}

TEST(BitplaneCorruptPayload, DecodeRejectsCountPlaneMismatch) {
  // count claims more coefficients than the stored planes cover; indexing
  // would over-read every plane payload.
  BitplaneEncoder enc(8);
  auto set = ValidSet();
  set.count += 64;
  EXPECT_FALSE(enc.Decode(set, 4).ok());
}

TEST(BitplaneCorruptPayload, DecodeRejectsBadNumPlanes) {
  BitplaneEncoder enc(8);
  auto set = ValidSet();
  set.num_planes = 61;  // shift by >= 64 in nega-binary reconstruction
  EXPECT_FALSE(enc.Decode(set, 4).ok());
  set.num_planes = 1;
  EXPECT_FALSE(enc.Decode(set, 1).ok());
}

TEST(BitplaneCorruptPayload, DecodeRejectsMorePlanesThanNumPlanes) {
  BitplaneEncoder enc(8);
  auto set = ValidSet();
  set.planes.resize(12, std::string(set.PlaneBytes(), '\0'));
  EXPECT_FALSE(enc.Decode(set, 4).ok());
}

TEST(BitplaneCorruptPayload, DecodeRejectsMissingPrefixPlanes) {
  // A set holding fewer planes than the requested prefix cannot supply
  // the digits Decode would read.
  BitplaneEncoder enc(8);
  auto set = ValidSet();
  set.planes.resize(3);
  EXPECT_TRUE(enc.Decode(set, 3).ok());
  EXPECT_FALSE(enc.Decode(set, 4).ok());
  EXPECT_FALSE(enc.Decode(set, 8).ok());
}

TEST(BitplaneCorruptPayload, DecodeRejectsOversizedPlane) {
  // A plane longer than ceil(count / 8) bytes is as malformed as a short
  // one, even past the prefix.
  BitplaneEncoder enc(8);
  auto set = ValidSet();
  set.planes[6].push_back('\0');
  EXPECT_FALSE(enc.Decode(set, 2).ok());
  EXPECT_FALSE(enc.Decode(set, 8).ok());
}

TEST(BitplaneCorruptPayload, PlaneTruncationSweepIsRejected) {
  // Every plane truncated to every shorter length fails, whatever the
  // prefix.
  BitplaneEncoder enc(8);
  const BitplaneSet good = ValidSet();
  for (std::size_t p = 0; p < good.planes.size(); ++p) {
    for (std::size_t len = 0; len < good.PlaneBytes(); ++len) {
      BitplaneSet set = good;
      set.planes[p].resize(len);
      for (int b : {0, 1, 8}) {
        EXPECT_FALSE(enc.Decode(set, b).ok())
            << "plane " << p << " len " << len << " prefix " << b;
      }
    }
  }
}

TEST(BitplaneCorruptPayload, ReferenceDecoderAgreesOnDamagedSets) {
  // The word-parallel and scalar decoders share one validation: on damaged
  // sets they accept and reject the same inputs, and decode the accepted
  // ones identically.
  const BitplaneSet good = ValidSet();
  BitplaneEncoder enc(8);
  Rng rng(78);
  int accepted = 0;
  for (int iter = 0; iter < 300; ++iter) {
    BitplaneSet set = good;
    switch (rng.NextUint64() % 3) {
      case 0:
        set.count = rng.NextUint64() % (2 * good.count + 1);
        break;
      case 1:
        set.planes.resize(rng.NextUint64() % 10,
                          std::string(good.PlaneBytes(), '\x3C'));
        break;
      default:
        set.planes[rng.NextUint64() % set.planes.size()][0] ^= '\x5A';
        break;
    }
    const int b = static_cast<int>(rng.NextUint64() % 10) - 1;
    auto fast = enc.Decode(set, b);
    auto scalar = internal::DecodeScalar(set, b);
    ASSERT_EQ(fast.ok(), scalar.ok()) << "iter " << iter;
    if (fast.ok()) {
      ++accepted;
      EXPECT_EQ(fast.value(), scalar.value()) << "iter " << iter;
    }
  }
  EXPECT_GT(accepted, 0);
}

TEST(BitplaneCorruptPayload, FuzzRandomMutationsNeverCrash) {
  // Damage random shape fields and plane sizes of a valid set; Decode
  // either rejects it cleanly or decodes without over-reading (ASan/UBSan
  // jobs give this test its teeth).
  const BitplaneSet good = ValidSet();
  Rng rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    BitplaneSet set = good;
    switch (rng.NextUint64() % 4) {
      case 0:
        set.count = rng.NextUint64() % (4 * good.count + 1);
        break;
      case 1:
        set.num_planes = static_cast<int>(rng.NextUint64() % 70) - 2;
        break;
      case 2:
        set.planes[rng.NextUint64() % set.planes.size()].resize(
            rng.NextUint64() % (2 * good.PlaneBytes() + 1));
        break;
      default:
        set.planes.resize(rng.NextUint64() % 16,
                          std::string(good.PlaneBytes(), '\x55'));
        break;
    }
    BitplaneEncoder enc(8);
    for (int b : {0, 2, 8}) {
      auto decoded = enc.Decode(set, b);
      (void)decoded;  // ok() either way; must not crash or over-read
    }
  }
}

}  // namespace
}  // namespace mgardp
