// Round-trip and robustness properties of the Golomb/Rice codec, plus the
// CompressAuto per-plane policy.

#include "lossless/rice.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lossless/codec.h"
#include "util/rng.h"

namespace mgardp {
namespace lossless {
namespace {

std::string RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (char& c : s) {
    c = static_cast<char>(rng.NextUint64() & 0xFF);
  }
  return s;
}

// A plane-like payload: set bits with probability `density`.
std::string SparseBits(std::size_t n, double density, std::uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (std::size_t bit = 0; bit < n * 8; ++bit) {
    if (rng.NextDouble() < density) {
      s[bit >> 3] |= static_cast<char>(1u << (bit & 7));
    }
  }
  return s;
}

std::string Rice(const std::string& in) {
  return CompressWith(in, "rice").value();
}

void ExpectRiceRoundTrip(const std::string& in) {
  const std::string packed = Rice(in);
  ASSERT_FALSE(packed.empty());
  EXPECT_EQ(static_cast<unsigned char>(packed[0]), kRiceCodecId);
  auto back = Decompress(packed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), in);
}

TEST(RiceCodecTest, RoundTripsEmptyInput) { ExpectRiceRoundTrip(""); }

TEST(RiceCodecTest, RoundTripsAllZeroAndAllOnes) {
  ExpectRiceRoundTrip(std::string(1000, '\0'));
  ExpectRiceRoundTrip(std::string(1000, '\xFF'));
  // All-zeros must compress massively.
  EXPECT_LT(Rice(std::string(1 << 16, '\0')).size(), 16u);
}

TEST(RiceCodecTest, RoundTripsDensitySweep) {
  for (double density : {0.0005, 0.004, 0.03, 0.2, 0.5, 0.8, 0.97, 0.999}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{125},
                          std::size_t{4096}}) {
      SCOPED_TRACE("density=" + std::to_string(density) +
                   " n=" + std::to_string(n));
      ExpectRiceRoundTrip(
          SparseBits(n, density, 1000 + n + std::size_t(density * 1e5)));
    }
  }
}

TEST(RiceCodecTest, RoundTripsIncompressibleInput) {
  // Random bytes: the raw fallback must kick in and cost stays bounded.
  for (std::size_t n : {std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
    const std::string in = RandomBytes(n, 42 + n);
    ExpectRiceRoundTrip(in);
    EXPECT_LE(Rice(in).size(), in.size() + 11);
  }
}

TEST(RiceCodecTest, SparsePlanesBeatThePipeline) {
  const std::string plane = SparseBits(8192, 0.002, 9);
  const std::size_t rice_size = Rice(plane).size();
  const std::size_t pipe_size = CompressWith(plane, "pipeline").value().size();
  EXPECT_LT(rice_size, pipe_size);
}

TEST(RiceCodecTest, SingleBitPositions) {
  // One set bit at every position of a small payload: exercises first/last
  // bit placement and gap = position edge cases.
  for (std::size_t bit = 0; bit < 64; ++bit) {
    std::string in(8, '\0');
    in[bit >> 3] |= static_cast<char>(1u << (bit & 7));
    ExpectRiceRoundTrip(in);
  }
}

TEST(RiceCodecTest, DensePlanesCodeTheClearBits) {
  // Mostly-set payloads code the gaps between clear bits: the container
  // stays in Rice mode with the invert flag and is as small as its sparse
  // mirror image.
  const std::string sparse = SparseBits(4096, 0.002, 11);
  std::string dense = sparse;
  for (char& c : dense) {
    c = static_cast<char>(~c);
  }
  ExpectRiceRoundTrip(dense);
  const std::string packed = Rice(dense);
  ASSERT_GE(packed.size(), 4u);
  EXPECT_EQ(packed[1], '\x01');  // rice mode, not the raw fallback
  std::size_t pos = 2;
  std::uint64_t raw_size = 0;
  ASSERT_TRUE(internal::GetVarint(packed, &pos, &raw_size).ok());
  EXPECT_EQ(raw_size, dense.size());
  EXPECT_NE(static_cast<unsigned char>(packed[pos]) & 0x40, 0);
  EXPECT_EQ(packed.size(), Rice(sparse).size());
}

TEST(RiceCodecTest, RejectsCorruptContainers) {
  EXPECT_FALSE(Decompress("").ok());
  EXPECT_FALSE(Decompress("\x10").ok());
  // Unknown mode.
  EXPECT_FALSE(Decompress(std::string("\x10\x07\x00", 3)).ok());
  // Raw mode whose payload size disagrees with the header.
  EXPECT_FALSE(Decompress(std::string("\x10\x00\x05"
                                      "ab",
                                      5))
                   .ok());
  // Truncation sweep of a valid container.
  const std::string good = Rice(SparseBits(256, 0.01, 3));
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(Decompress(good.substr(0, len)).ok()) << "len=" << len;
  }
}

TEST(RiceCodecTest, FuzzMutationsNeverCrash) {
  Rng rng(5);
  const std::string good = Rice(SparseBits(512, 0.05, 6));
  for (int iter = 0; iter < 2000; ++iter) {
    std::string blob = good;
    const int flips = 1 + static_cast<int>(rng.NextUint64() % 6);
    for (int f = 0; f < flips; ++f) {
      blob[rng.NextUint64() % blob.size()] =
          static_cast<char>(rng.NextUint64() & 0xFF);
    }
    auto out = Decompress(blob);
    if (out.ok()) {
      // Whatever decoded must re-encode losslessly (self-consistency).
      EXPECT_LE(out.value().size(), kMaxRawSize);
    }
  }
}

TEST(RiceCodecTest, RejectsHugeRawSizeClaim) {
  // Hand-built header claiming 2^40 bytes with no payload behind it.
  std::string blob;
  blob.push_back(static_cast<char>(kRiceCodecId));
  blob.push_back('\x01');
  internal::PutVarint(&blob, std::uint64_t{1} << 40);
  blob.push_back('\x00');  // k = 0
  internal::PutVarint(&blob, 0);
  EXPECT_FALSE(Decompress(blob).ok());
}

TEST(CompressAutoTest, AlwaysRoundTrips) {
  std::vector<std::string> inputs = {
      "",
      "a",
      std::string(100, '\0'),
      std::string(100000, '\0'),
      SparseBits(4096, 0.001, 1),
      SparseBits(4096, 0.3, 2),
      SparseBits(4096, 0.995, 3),
      RandomBytes(4096, 4),
      RandomBytes(200000, 5),  // chunked-pipeline territory
  };
  // A compressible-but-dense payload for the trial branch.
  std::string text;
  for (int i = 0; i < 3000; ++i) {
    text += "the quick brown fox jumps over the lazy dog ";
  }
  inputs.push_back(text);
  for (const std::string& in : inputs) {
    const std::string packed = CompressAuto(in);
    auto back = Decompress(packed);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value(), in);
    EXPECT_LE(packed.size(), in.size() + 16);
  }
}

TEST(CompressAutoTest, RoutesByDensity) {
  // Sparse -> rice container; random -> raw pipeline container.
  const std::string sparse = SparseBits(8192, 0.002, 7);
  EXPECT_EQ(static_cast<unsigned char>(CompressAuto(sparse)[0]),
            kRiceCodecId);
  const std::string noise = RandomBytes(8192, 8);
  EXPECT_EQ(CompressAuto(noise)[0], '\0');
}

}  // namespace
}  // namespace lossless
}  // namespace mgardp
