#include "util/io.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

namespace mgardp {
namespace {

TEST(BinaryIoTest, PodRoundTrip) {
  BinaryWriter w;
  w.Put<std::int32_t>(-7);
  w.Put<std::uint64_t>(123456789ULL);
  w.Put<double>(3.25);
  BinaryReader r(w.buffer());
  std::int32_t i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  ASSERT_TRUE(r.Get(&i).ok());
  ASSERT_TRUE(r.Get(&u).ok());
  ASSERT_TRUE(r.Get(&d).ok());
  EXPECT_EQ(i, -7);
  EXPECT_EQ(u, 123456789ULL);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(BinaryIoTest, VectorRoundTrip) {
  BinaryWriter w;
  std::vector<double> v{1.5, -2.5, 0.0};
  w.PutVector(v);
  std::vector<int> empty;
  w.PutVector(empty);
  BinaryReader r(w.buffer());
  std::vector<double> v2;
  std::vector<int> e2{9};
  ASSERT_TRUE(r.GetVector(&v2).ok());
  ASSERT_TRUE(r.GetVector(&e2).ok());
  EXPECT_EQ(v2, v);
  EXPECT_TRUE(e2.empty());
}

TEST(BinaryIoTest, StringRoundTrip) {
  BinaryWriter w;
  w.PutString("hello\0world");
  std::string embedded("a\0b", 3);
  w.PutString(embedded);
  BinaryReader r(w.buffer());
  std::string s1, s2;
  ASSERT_TRUE(r.GetString(&s1).ok());
  ASSERT_TRUE(r.GetString(&s2).ok());
  EXPECT_EQ(s1, "hello");  // C-string constructor stops at NUL
  EXPECT_EQ(s2, embedded);
}

TEST(BinaryIoTest, TruncatedReadFails) {
  BinaryWriter w;
  w.Put<std::int32_t>(1);
  BinaryReader r(w.buffer());
  std::int64_t wide = 0;
  EXPECT_FALSE(r.Get(&wide).ok());
}

TEST(BinaryIoTest, TruncatedVectorFails) {
  BinaryWriter w;
  w.Put<std::uint64_t>(1000);  // claims 1000 entries, provides none
  BinaryReader r(w.buffer());
  std::vector<double> v;
  EXPECT_FALSE(r.GetVector(&v).ok());
}

// A length prefix near 2^64 must not wrap the bounds check around and
// reach the allocation.
TEST(BinaryIoTest, HugeVectorLengthFails) {
  BinaryWriter w;
  w.Put<std::uint64_t>(std::uint64_t{1} << 61);  // 2^61 doubles = 2^64 bytes
  w.Put<std::uint64_t>(0);
  ASSERT_EQ(w.buffer().size(), 16u);
  BinaryReader r(w.buffer());
  std::vector<double> v;
  const Status st = r.GetVector(&v);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
  EXPECT_TRUE(v.empty());
}

TEST(BinaryIoTest, HugeStringLengthFails) {
  BinaryWriter w;
  w.Put<std::uint64_t>(~std::uint64_t{0} - 7);  // 2^64 - 8
  w.Put<std::uint64_t>(0);
  ASSERT_EQ(w.buffer().size(), 16u);
  BinaryReader r(w.buffer());
  std::string s;
  const Status st = r.GetString(&s);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
  EXPECT_TRUE(s.empty());
}

TEST(FileIoTest, WriteReadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mgardp_io_test.bin").string();
  std::string content("binary\0data\xff", 12);
  ASSERT_TRUE(WriteFile(path, content).ok());
  auto loaded = ReadFileToString(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), content);
  std::filesystem::remove(path);
}

TEST(FileIoTest, MissingFileFails) {
  auto result = ReadFileToString("/nonexistent/path/to/file");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(FileIoTest, WriteFileAtomicReplacesAtomically) {
  const std::string path = ::testing::TempDir() + "/atomic_write_test.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first 1\n").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second 2\n").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "second 2\n");
  // No leftover temp file from either write.
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
}

TEST(FileIoTest, WriteFileAtomicReportsBadDirectory) {
  EXPECT_FALSE(
      WriteFileAtomic("/nonexistent-dir-for-test/out.txt", "x 1\n").ok());
}

TEST(PeriodicFileWriterTest, FlushesPeriodicallyAndStopIsIdempotent) {
  const std::string path = ::testing::TempDir() + "/periodic_writer_test.txt";
  std::atomic<int> renders{0};
  PeriodicFileWriter writer(path, std::chrono::milliseconds(10), [&renders] {
    return "render " + std::to_string(++renders) + "\n";
  });
  // Wait until the background thread has flushed at least twice.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (writer.flushes() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(writer.flushes(), 2u);
  ASSERT_TRUE(writer.Stop().ok());
  const std::uint64_t after_stop = writer.flushes();
  EXPECT_GE(after_stop, 3u);  // Stop() always performs a final flush
  ASSERT_TRUE(writer.Stop().ok());  // idempotent: no extra flush
  EXPECT_EQ(writer.flushes(), after_stop);
  // The file holds the last render, the one Stop() wrote.
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "render " + std::to_string(renders.load()) + "\n");
  EXPECT_EQ(static_cast<std::uint64_t>(renders.load()), after_stop);
  EXPECT_TRUE(writer.last_error().ok());
}

TEST(PeriodicFileWriterTest, StopWithoutTickStillWritesFinalState) {
  const std::string path = ::testing::TempDir() + "/periodic_writer_final.txt";
  PeriodicFileWriter writer(path, std::chrono::hours(1),
                            [] { return std::string("final 1\n"); });
  ASSERT_TRUE(writer.Stop().ok());
  EXPECT_EQ(writer.flushes(), 1u);
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "final 1\n");
}

TEST(PeriodicFileWriterTest, SurfacesWriteErrors) {
  PeriodicFileWriter writer("/nonexistent-dir-for-test/out.txt",
                            std::chrono::hours(1),
                            [] { return std::string("x 1\n"); });
  EXPECT_FALSE(writer.Stop().ok());
  EXPECT_FALSE(writer.last_error().ok());
}

}  // namespace
}  // namespace mgardp
