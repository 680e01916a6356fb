#include "lossless/codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "lossless/rice.h"
#include "util/rng.h"

namespace mgardp {
namespace lossless {
namespace {

std::string RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (char& c : s) {
    c = static_cast<char>(rng.NextBounded(256));
  }
  return s;
}

// The pipeline container, as CompressWith writes it.
std::string Pipeline(const std::string& in) {
  return CompressWith(in, "pipeline").value();
}

TEST(RleTest, RoundTripVariousInputs) {
  for (const std::string& input :
       {std::string(), std::string("abc"), std::string(1000, 'x'),
        std::string("aaaabbbbccccd"), RandomBytes(5000, 1),
        std::string(3, '\xFE'), std::string(100, '\xFE')}) {
    auto decoded = internal::RleDecode(internal::RleEncode(input));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), input);
  }
}

TEST(RleTest, CompressesZeroRuns) {
  std::string zeros(10000, '\0');
  EXPECT_LT(internal::RleEncode(zeros).size(), 20u);
}

TEST(RleTest, RejectsDanglingEscape) {
  std::string bad(1, '\xFE');
  EXPECT_FALSE(internal::RleDecode(bad).ok());
}

TEST(RleTest, RejectsBadEscapeTag) {
  std::string bad;
  bad.push_back('\xFE');
  bad.push_back('\x7F');
  EXPECT_FALSE(internal::RleDecode(bad).ok());
}

TEST(LzTest, RoundTripVariousInputs) {
  for (const std::string& input :
       {std::string(), std::string("abc"), std::string(1000, 'x'),
        std::string("abcdabcdabcdabcd"), RandomBytes(5000, 31),
        std::string("the quick brown fox ") + std::string("the quick brown fox "),
        std::string(3, '\0')}) {
    auto decoded = internal::LzDecode(internal::LzEncode(input));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), input);
  }
}

TEST(LzTest, CompressesRepeatedPatterns) {
  std::string pattern = "coefplanecoefplane--";
  std::string input;
  for (int i = 0; i < 500; ++i) {
    input += pattern;
  }
  EXPECT_LT(internal::LzEncode(input).size(), input.size() / 10);
}

TEST(LzTest, OverlappingMatchReplicates) {
  // Runs are matches at offset 1; the decoder must replicate byte by byte.
  std::string input = "a" + std::string(1000, 'b');
  auto decoded = internal::LzDecode(internal::LzEncode(input));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), input);
}

TEST(LzTest, RejectsCorruptStreams) {
  // Offset pointing before the start of the output window.
  std::string bad;
  bad.push_back(0x00);  // 0 literals
  bad.push_back(0x08);  // match length 8
  bad.push_back(0x05);  // offset 5 into an empty window
  EXPECT_FALSE(internal::LzDecode(bad).ok());
  // Truncated literal run.
  std::string bad2;
  bad2.push_back(0x7F);
  bad2 += "short";
  EXPECT_FALSE(internal::LzDecode(bad2).ok());
}

TEST(LzTest, LongRandomRoundTrip) {
  // Mixed compressible/incompressible content.
  Rng rng(77);
  std::string input;
  for (int block = 0; block < 50; ++block) {
    if (rng.NextBounded(2)) {
      input += RandomBytes(rng.NextBounded(500) + 1, block);
    } else {
      input += std::string(rng.NextBounded(500) + 4,
                           static_cast<char>(rng.NextBounded(256)));
    }
  }
  auto decoded = internal::LzDecode(internal::LzEncode(input));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), input);
}

TEST(HuffmanTest, RoundTripVariousInputs) {
  for (const std::string& input :
       {std::string(), std::string("a"), std::string("ab"),
        std::string(1000, 'q'), std::string("the quick brown fox"),
        RandomBytes(10000, 2)}) {
    auto decoded = internal::HuffmanDecode(internal::HuffmanEncode(input));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), input);
  }
}

TEST(HuffmanTest, CompressesSkewedDistribution) {
  // 97% 'a', 3% others: entropy well below 8 bits/byte.
  Rng rng(3);
  std::string s(20000, 'a');
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (rng.NextDouble() < 0.03) {
      s[i] = static_cast<char>('b' + rng.NextBounded(4));
    }
  }
  const std::string encoded = internal::HuffmanEncode(s);
  EXPECT_LT(encoded.size(), s.size() / 3);
}

TEST(HuffmanTest, RejectsTruncatedPayload) {
  std::string encoded = internal::HuffmanEncode(RandomBytes(1000, 4));
  encoded.resize(encoded.size() / 2);
  EXPECT_FALSE(internal::HuffmanDecode(encoded).ok());
}

TEST(HuffmanTest, RejectsTruncatedHeader) {
  EXPECT_FALSE(internal::HuffmanDecode("tiny").ok());
}

TEST(CodecTest, RoundTripEverything) {
  for (const std::string& input :
       {std::string(), std::string("x"), std::string(100000, '\0'),
        RandomBytes(50000, 5), std::string("mixed") + std::string(500, '\0'),
        std::string(10, '\xFE') + RandomBytes(100, 6)}) {
    auto decoded = Decompress(Pipeline(input));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), input);
  }
}

TEST(CodecTest, SparseBitplanesCompressWell) {
  // Simulates a high-significance bit-plane: almost all zero bits.
  Rng rng(7);
  std::string plane(8192, '\0');
  for (int i = 0; i < 50; ++i) {
    plane[rng.NextBounded(plane.size())] =
        static_cast<char>(1 << rng.NextBounded(8));
  }
  const std::string compressed = Pipeline(plane);
  EXPECT_LT(compressed.size(), plane.size() / 10);
}

TEST(CodecTest, IncompressibleDataExpandsByHeaderOnly) {
  const std::string noise = RandomBytes(4096, 8);
  const std::string compressed = Pipeline(noise);
  EXPECT_LE(compressed.size(), noise.size() + 1);
}

TEST(CodecTest, EmptyContainerRejected) {
  EXPECT_FALSE(Decompress("").ok());
}

TEST(CodecTest, UnknownFlagsRejected) {
  std::string bad(1, '\x40');
  EXPECT_FALSE(Decompress(bad).ok());
  // RLE and LZ flags are mutually exclusive by construction.
  std::string conflict(1, '\x05');
  EXPECT_FALSE(Decompress(conflict).ok());
}

TEST(CodecTest, PatternedDataUsesLzEffectively) {
  // Structured but not run-dominated: LZ should beat plain RLE+Huffman.
  std::string input;
  for (int i = 0; i < 2000; ++i) {
    input += "plane";
    input.push_back(static_cast<char>(i & 3));
  }
  const std::string compressed = Pipeline(input);
  EXPECT_LT(compressed.size(), input.size() / 8);
  auto decoded = Decompress(compressed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), input);
}

TEST(CodecTest, DeterministicOutput) {
  const std::string input = RandomBytes(10000, 9);
  EXPECT_EQ(Pipeline(input), Pipeline(input));
}

// Decompress routes on the first container byte over a closed set: the
// pipeline owns 0x00..0x0F, Rice owns 0x10, every other byte is rejected.
TEST(CodecRouteTest, EveryPipelineContainerKindRoundTrips) {
  std::string input;
  for (int i = 0; i < 3000; ++i) {
    input += "plane";
    input.append(static_cast<std::size_t>(i % 7), '\0');
  }
  const std::string rle = internal::RleEncode(input);
  const std::string lz = internal::LzEncode(input);
  // Stages stack as the decoder undoes them: Huffman outermost, then LZ or
  // RLE.
  const std::vector<std::pair<unsigned char, std::string>> bodies = {
      {0x00, input},
      {0x01, rle},
      {0x02, internal::HuffmanEncode(input)},
      {0x03, internal::HuffmanEncode(rle)},
      {0x04, lz},
      {0x06, internal::HuffmanEncode(lz)},
  };
  for (const auto& [flags, body] : bodies) {
    SCOPED_TRACE("flags=" + std::to_string(flags));
    EXPECT_STREQ(CodecName(flags), "pipeline");
    auto decoded = Decompress(std::string(1, static_cast<char>(flags)) + body);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), input);
  }
  // Above one 64 KiB chunk the pipeline writes the chunked container.
  const std::string big = RandomBytes(3 * 65536 + 5, 21) + input;
  const std::string chunked = Pipeline(big);
  ASSERT_EQ(static_cast<unsigned char>(chunked[0]), 0x08);
  auto decoded = Decompress(chunked);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), big);
}

TEST(CodecRouteTest, InvalidPipelineFlagsReachThePipelineDecoder) {
  // The flags bytes no pipeline container uses still belong to the
  // pipeline: its decoder, not the router, rejects them.
  for (unsigned char flags : {0x05, 0x07, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E,
                              0x0F}) {
    SCOPED_TRACE("flags=" + std::to_string(flags));
    EXPECT_STREQ(CodecName(flags), "pipeline");
    auto decoded = Decompress(std::string(1, static_cast<char>(flags)) + "x");
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("flags"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(CodecRouteTest, RiceIdDecodesAsRice) {
  std::string sparse(4096, '\0');
  sparse[17] = '\x01';
  sparse[3000] = '\x40';
  auto packed = CompressWith(sparse, "rice");
  ASSERT_TRUE(packed.ok());
  ASSERT_EQ(static_cast<unsigned char>(packed.value()[0]), kRiceCodecId);
  EXPECT_STREQ(CodecName(kRiceCodecId), "rice");
  auto decoded = Decompress(packed.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), sparse);
}

TEST(CodecRouteTest, UnassignedIdsAreRejected) {
  const std::string body = Pipeline(RandomBytes(100, 22)).substr(1);
  for (int id = 0x11; id <= 0xFF; ++id) {
    SCOPED_TRACE("id=" + std::to_string(id));
    EXPECT_EQ(CodecName(static_cast<std::uint8_t>(id)), nullptr);
    auto decoded = Decompress(std::string(1, static_cast<char>(id)) + body);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CodecRouteTest, CompressWithNamesTheClosedSet) {
  const std::string in = RandomBytes(1000, 23);
  for (const std::string name : {"auto", "pipeline", "rice"}) {
    auto packed = CompressWith(in, name);
    ASSERT_TRUE(packed.ok()) << name;
    if (name != "auto") {
      EXPECT_STREQ(CodecName(static_cast<unsigned char>(packed.value()[0])),
                   name.c_str());
    }
    auto decoded = Decompress(packed.value());
    ASSERT_TRUE(decoded.ok()) << name;
    EXPECT_EQ(decoded.value(), in) << name;
  }
  auto unknown = CompressWith(in, "zstd");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

// "auto" names the refactorer's per-plane policy, byte for byte.
TEST(CodecRouteTest, CompressWithAutoIsCompressAuto) {
  std::string sparse(8192, '\0');
  for (std::size_t i = 0; i < sparse.size(); i += 331) {
    sparse[i] = '\x04';
  }
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "plane" + std::to_string(i % 13);
  }
  for (const std::string& in :
       {std::string(), std::string(4096, '\0'), sparse, text,
        RandomBytes(5000, 24)}) {
    auto packed = CompressWith(in, "auto");
    ASSERT_TRUE(packed.ok());
    EXPECT_EQ(packed.value(), CompressAuto(in));
  }
}

// Whatever the pipeline writes starts with a flags byte below the first
// codec id, so the router never mistakes a pipeline container for Rice.
TEST(CodecRouteTest, PipelineContainersNeverStartWithACodecId) {
  std::vector<std::string> inputs = {std::string(), std::string("x"),
                                     std::string(70000, '\0'),
                                     RandomBytes(3000, 25),
                                     RandomBytes(2 * 65536 + 3, 26)};
  std::string runs;
  for (int i = 0; i < 4000; ++i) {
    runs.append(static_cast<std::size_t>(i % 9), static_cast<char>(i & 7));
  }
  inputs.push_back(runs);
  for (const std::string& in : inputs) {
    const std::string packed = Pipeline(in);
    ASSERT_FALSE(packed.empty());
    const auto first = static_cast<unsigned char>(packed[0]);
    EXPECT_LT(first, kFirstRegisteredCodecId) << "size " << in.size();
    EXPECT_STREQ(CodecName(first), "pipeline");
  }
}

class CodecSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecSizeSweep, RoundTripAtSize) {
  const std::string input = RandomBytes(GetParam(), 10 + GetParam());
  auto decoded = Decompress(Pipeline(input));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CodecSizeSweep,
                         ::testing::Values(0, 1, 2, 7, 8, 9, 255, 256, 257,
                                           4095, 65536));

// Chunk-boundary sizes whose chunks alternate between skewed bytes (a
// Huffman frame) and uniform noise (a raw frame). Multi-chunk inputs decode
// every frame into its own slice of one shared output across the pool.
class ChunkedCodecSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkedCodecSweep, MixedFramesRoundTrip) {
  constexpr std::size_t kChunk = 64 * 1024;
  Rng rng(GetParam());
  std::string input(GetParam(), '\0');
  for (std::size_t i = 0; i < input.size(); ++i) {
    const bool skewed = (i / kChunk) % 2 == 0;
    input[i] = static_cast<char>(rng.NextBounded(skewed ? 4 : 256));
  }
  const std::string compressed = Pipeline(input);
  auto decoded = Decompress(compressed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), input);
  if (input.size() <= kChunk) {
    return;
  }
  // Walk the chunked container: the frames must mix both kinds.
  ASSERT_EQ(static_cast<unsigned char>(compressed[0]), 0x08);
  std::size_t pos = 1;
  std::uint64_t raw_size = 0, chunk_size = 0, num_chunks = 0;
  ASSERT_TRUE(internal::GetVarint(compressed, &pos, &raw_size).ok());
  ASSERT_TRUE(internal::GetVarint(compressed, &pos, &chunk_size).ok());
  ASSERT_TRUE(internal::GetVarint(compressed, &pos, &num_chunks).ok());
  bool saw_raw = false;
  bool saw_huffman = false;
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    std::uint64_t frame_size = 0;
    ASSERT_TRUE(internal::GetVarint(compressed, &pos, &frame_size).ok());
    const unsigned char flags = static_cast<unsigned char>(compressed[pos]);
    saw_raw |= flags == 0x00;
    saw_huffman |= (flags & 0x02) != 0;
    pos += frame_size;
  }
  EXPECT_TRUE(saw_raw);
  EXPECT_TRUE(saw_huffman);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChunkedCodecSweep,
                         ::testing::Values(65535, 65537, 3 * 65536 + 1));

// Size fields read from a container must not drive an allocation past
// kMaxRawSize: each of these once aborted the process with bad_alloc.
constexpr std::uint64_t kHugeSize = std::uint64_t{1} << 50;

TEST(HostileHeaderTest, HuffmanSymbolCountBeyondPayload) {
  std::string blob = internal::HuffmanEncode("abracadabra");
  std::memcpy(blob.data(), &kHugeSize, sizeof(kHugeSize));
  EXPECT_FALSE(internal::HuffmanDecode(blob).ok());
  EXPECT_FALSE(Decompress(std::string(1, '\x02') + blob).ok());
}

TEST(HostileHeaderTest, RleRunBeyondCap) {
  std::string blob = "\xFE\x01x";
  internal::PutVarint(&blob, kHugeSize);
  EXPECT_FALSE(internal::RleDecode(blob).ok());
  EXPECT_FALSE(Decompress(std::string(1, '\x01') + blob).ok());
}

TEST(HostileHeaderTest, LzMatchBeyondCap) {
  std::string blob;
  internal::PutVarint(&blob, 1);
  blob.push_back('a');
  internal::PutVarint(&blob, kHugeSize);  // match length
  internal::PutVarint(&blob, 1);          // offset
  internal::PutVarint(&blob, 0);
  EXPECT_FALSE(internal::LzDecode(blob).ok());
  EXPECT_FALSE(Decompress(std::string(1, '\x04') + blob).ok());
}

TEST(HostileHeaderTest, ChunkedSizesBeyondCap) {
  std::string blob(1, '\x08');
  internal::PutVarint(&blob, std::uint64_t{1} << 45);  // raw_size
  internal::PutVarint(&blob, std::uint64_t{1} << 45);  // chunk_size
  internal::PutVarint(&blob, 1);                       // num_chunks
  internal::PutVarint(&blob, 0);                       // one empty frame
  EXPECT_FALSE(Decompress(blob).ok());
}

TEST(HostileHeaderTest, ChunkCountBeyondFrames) {
  // A consistent header promising 2^24 one-byte chunks with no frames
  // behind it is refused before the frame table is sized.
  std::string blob(1, '\x08');
  internal::PutVarint(&blob, std::uint64_t{1} << 24);
  internal::PutVarint(&blob, 1);
  internal::PutVarint(&blob, std::uint64_t{1} << 24);
  auto decoded = Decompress(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("fewer frames"),
            std::string::npos);
}

TEST(HostileHeaderTest, ChunkDecodingToWrongSize) {
  // Two chunks of 65536 + 1 bytes whose second frame decodes to 2 bytes.
  std::string blob(1, '\x08');
  internal::PutVarint(&blob, 65537);
  internal::PutVarint(&blob, 65536);
  internal::PutVarint(&blob, 2);
  const std::string first = Pipeline(std::string(65536, 'z'));
  internal::PutVarint(&blob, first.size());
  blob += first;
  internal::PutVarint(&blob, 3);
  blob += std::string("\0ab", 3);
  EXPECT_FALSE(Decompress(blob).ok());
}

}  // namespace
}  // namespace lossless
}  // namespace mgardp
