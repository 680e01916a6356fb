// Codec-id / container-version compatibility: archives written before codec
// ids were recorded (v2 index, pipeline payloads) and before checksums
// existed (v1) must keep loading and decoding; v3 containers must record
// per-segment codec ids that survive a round trip.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>

#include "lossless/codec.h"
#include "lossless/rice.h"
#include "storage/container_format.h"
#include "storage/segment_store.h"
#include "util/io.h"

namespace mgardp {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / (name + "." + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Byte-for-byte what SegmentStore::WriteToDirectory produced before v3:
// "SIDX", version 2, and 28-byte records without the codec id.
void WriteV2Container(const std::string& dir, int level, int plane,
                      const std::string& payload) {
  ASSERT_TRUE(
      WriteFile(container::LevelFileName(dir, level), payload).ok());
  BinaryWriter index;
  index.Put<std::uint32_t>(container::kIndexMagic);
  index.Put<std::uint32_t>(2);
  index.Put<std::uint64_t>(1);
  index.Put<std::int32_t>(level);
  index.Put<std::int32_t>(plane);
  index.Put<std::uint64_t>(0);
  index.Put<std::uint64_t>(payload.size());
  index.Put<std::uint32_t>(SegmentChecksum(level, plane, payload));
  ASSERT_TRUE(WriteFile(dir + "/segments.idx", index.TakeBuffer()).ok());
}

TEST(ContainerCompatTest, PreRegistryV2ArchiveStillDecodes) {
  // A pre-PR archive: v2 index, payload compressed by the legacy pipeline
  // (its container byte is a flags value below 0x10).
  const std::string dir = TempDir("mgardp_compat_v2");
  const std::string plane_bits(4096, '\x11');
  const std::string payload =
      lossless::CompressWith(plane_bits, "pipeline").value();
  ASSERT_LT(static_cast<unsigned char>(payload[0]),
            lossless::kFirstRegisteredCodecId);
  WriteV2Container(dir, 2, 7, payload);

  auto store = SegmentStore::LoadFromDirectory(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto blob = store.value().Get(2, 7);
  ASSERT_TRUE(blob.ok());
  auto plane = lossless::Decompress(blob.value());
  ASSERT_TRUE(plane.ok());
  EXPECT_EQ(plane.value(), plane_bits);
  // The codec id is recovered from the payload's first byte and maps to
  // the pipeline codec.
  EXPECT_EQ(store.value().CodecOf(2, 7),
            static_cast<unsigned char>(payload[0]));
  EXPECT_STREQ(lossless::CodecName(store.value().CodecOf(2, 7)), "pipeline");
  fs::remove_all(dir);
}

TEST(ContainerCompatTest, V1ArchiveStillDecodes) {
  const std::string dir = TempDir("mgardp_compat_v1");
  const std::string payload =
      lossless::CompressWith(std::string(512, '\x0F'), "pipeline").value();
  ASSERT_TRUE(WriteFile(container::LevelFileName(dir, 0), payload).ok());
  BinaryWriter index;  // v1: no magic, no version, no crc, no codec
  index.Put<std::uint64_t>(1);
  index.Put<std::int32_t>(0);
  index.Put<std::int32_t>(0);
  index.Put<std::uint64_t>(0);
  index.Put<std::uint64_t>(payload.size());
  ASSERT_TRUE(WriteFile(dir + "/segments.idx", index.TakeBuffer()).ok());

  auto store = SegmentStore::LoadFromDirectory(dir);
  ASSERT_TRUE(store.ok());
  auto blob = store.value().Get(0, 0);
  ASSERT_TRUE(blob.ok());
  EXPECT_TRUE(lossless::Decompress(blob.value()).ok());
  fs::remove_all(dir);
}

TEST(ContainerCompatTest, V3RoundTripRecordsCodecIds) {
  const std::string dir = TempDir("mgardp_compat_v3");
  SegmentStore store;
  const std::string sparse =
      lossless::CompressWith(std::string(1024, '\0'), "rice").value();
  const std::string dense =
      lossless::CompressWith(std::string(1024, '\x5A'), "pipeline").value();
  store.Put(0, 0, sparse);
  store.Put(0, 1, dense);
  EXPECT_EQ(store.CodecOf(0, 0), lossless::kRiceCodecId);
  EXPECT_LT(store.CodecOf(0, 1), lossless::kFirstRegisteredCodecId);
  ASSERT_TRUE(store.WriteToDirectory(dir).ok());

  // The index on disk is v3.
  auto index_bytes = ReadFileToString(dir + "/segments.idx");
  ASSERT_TRUE(index_bytes.ok());
  std::uint32_t version = 0;
  std::memcpy(&version, index_bytes.value().data() + 4, sizeof(version));
  EXPECT_EQ(version, 3u);

  auto loaded = SegmentStore::LoadFromDirectory(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().CodecOf(0, 0), lossless::kRiceCodecId);
  EXPECT_EQ(loaded.value().CodecOf(0, 1), store.CodecOf(0, 1));
  EXPECT_STREQ(lossless::CodecName(loaded.value().CodecOf(0, 0)), "rice");
  EXPECT_STREQ(lossless::CodecName(loaded.value().CodecOf(0, 1)), "pipeline");
  EXPECT_EQ(loaded.value().Get(0, 0).value(), sparse);
  EXPECT_EQ(loaded.value().Get(0, 1).value(), dense);
  fs::remove_all(dir);
}

TEST(ContainerCompatTest, MixedCodecArchiveDecodesEverySegment) {
  // One archive, three payload codecs (pipeline, rice, raw-pipeline): the
  // reconstructor-side Decompress must route each by its leading byte.
  const std::string dir = TempDir("mgardp_compat_mixed");
  SegmentStore store;
  const std::string raw0(2048, '\0');
  const std::string raw1 = std::string(700, '\x33') + std::string(700, '\0');
  store.Put(0, 0, lossless::CompressWith(raw0, "rice").value());
  store.Put(0, 1, lossless::CompressWith(raw1, "pipeline").value());
  store.Put(1, 0, lossless::CompressAuto(raw1));
  ASSERT_TRUE(store.WriteToDirectory(dir).ok());
  auto loaded = SegmentStore::LoadFromDirectory(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(lossless::Decompress(loaded.value().Get(0, 0).value()).value(),
            raw0);
  EXPECT_EQ(lossless::Decompress(loaded.value().Get(0, 1).value()).value(),
            raw1);
  EXPECT_EQ(lossless::Decompress(loaded.value().Get(1, 0).value()).value(),
            raw1);
  fs::remove_all(dir);
}

TEST(ContainerCompatTest, UnsupportedFutureVersionFailsClean) {
  const std::string dir = TempDir("mgardp_compat_future");
  BinaryWriter index;
  index.Put<std::uint32_t>(container::kIndexMagic);
  index.Put<std::uint32_t>(4);
  index.Put<std::uint64_t>(0);
  ASSERT_TRUE(WriteFile(dir + "/segments.idx", index.TakeBuffer()).ok());
  EXPECT_FALSE(SegmentStore::LoadFromDirectory(dir).ok());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mgardp
