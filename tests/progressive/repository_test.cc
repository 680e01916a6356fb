#include "progressive/repository.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "progressive/reconstructor.h"
#include "util/io.h"
#include "util/stats.h"

namespace mgardp {
namespace {

class RepositoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs each TEST_F as its own process, so a
    // shared fixed path races under `ctest -j`.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = (std::filesystem::temp_directory_path() /
             (std::string("mgardp_repo_test_") + info->name()))
                .string();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  FieldSeries SmallSeries(WarpXField f = WarpXField::kEx) {
    WarpXDatasetOptions opts;
    opts.dims = Dims3{17, 17, 1};
    opts.num_timesteps = 3;
    return GenerateWarpX(opts, f);
  }

  std::string root_;
};

TEST_F(RepositoryTest, OpenCreatesEmptyRepository) {
  auto repo = FieldRepository::Open(root_);
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  EXPECT_TRUE(repo.value().entries().empty());
  EXPECT_EQ(repo.value().TotalBytes(), 0u);
}

TEST_F(RepositoryTest, StoreLoadRoundTrip) {
  auto repo = FieldRepository::Open(root_);
  ASSERT_TRUE(repo.ok());
  FieldSeries series = SmallSeries();
  auto artifact = Refactorer().Refactor(series.frames[1]);
  ASSERT_TRUE(artifact.ok());
  ASSERT_TRUE(
      repo.value().Store("warpx", "E_x", 1, artifact.value()).ok());
  EXPECT_TRUE(repo.value().Contains("warpx", "E_x", 1));
  EXPECT_FALSE(repo.value().Contains("warpx", "E_x", 2));

  auto loaded = repo.value().Load("warpx", "E_x", 1);
  ASSERT_TRUE(loaded.ok());
  // Retrieval from the loaded artifact matches the in-memory one.
  TheoryEstimator est;
  Reconstructor rec(&est);
  const double bound = 1e-4 * artifact.value().data_summary.range();
  auto a = rec.Retrieve(artifact.value(), bound);
  auto b = rec.Retrieve(loaded.value(), bound);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(MaxAbsError(a.value().vector(), b.value().vector()), 0.0);
}

TEST_F(RepositoryTest, ManifestSurvivesReopen) {
  {
    auto repo = FieldRepository::Open(root_);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE(
        repo.value().StoreSeries(SmallSeries(), Refactorer()).ok());
  }
  auto reopened = FieldRepository::Open(root_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().entries().size(), 3u);
  EXPECT_EQ(reopened.value().Timesteps("warpx", "E_x"),
            (std::vector<int>{0, 1, 2}));
  EXPECT_GT(reopened.value().TotalBytes(), 0u);
  auto loaded = reopened.value().Load("warpx", "E_x", 2);
  EXPECT_TRUE(loaded.ok());
}

TEST_F(RepositoryTest, StoreOverwritesSameCoordinates) {
  auto repo = FieldRepository::Open(root_);
  ASSERT_TRUE(repo.ok());
  FieldSeries series = SmallSeries();
  auto a0 = Refactorer().Refactor(series.frames[0]);
  auto a1 = Refactorer().Refactor(series.frames[1]);
  ASSERT_TRUE(a0.ok() && a1.ok());
  ASSERT_TRUE(repo.value().Store("warpx", "E_x", 0, a0.value()).ok());
  ASSERT_TRUE(repo.value().Store("warpx", "E_x", 0, a1.value()).ok());
  EXPECT_EQ(repo.value().entries().size(), 1u);
}

TEST_F(RepositoryTest, SeparatesFieldsAndApplications) {
  auto repo = FieldRepository::Open(root_);
  ASSERT_TRUE(repo.ok());
  ASSERT_TRUE(repo.value().StoreSeries(SmallSeries(WarpXField::kEx),
                                       Refactorer())
                  .ok());
  ASSERT_TRUE(repo.value().StoreSeries(SmallSeries(WarpXField::kJx),
                                       Refactorer())
                  .ok());
  EXPECT_EQ(repo.value().entries().size(), 6u);
  EXPECT_EQ(repo.value().Timesteps("warpx", "E_x").size(), 3u);
  EXPECT_EQ(repo.value().Timesteps("warpx", "J_x").size(), 3u);
  EXPECT_TRUE(repo.value().Timesteps("warpx", "B_x").empty());
}

TEST_F(RepositoryTest, RejectsPathEscapingNames) {
  auto repo = FieldRepository::Open(root_);
  ASSERT_TRUE(repo.ok());
  FieldSeries series = SmallSeries();
  auto artifact = Refactorer().Refactor(series.frames[0]);
  ASSERT_TRUE(artifact.ok());
  EXPECT_FALSE(repo.value().Store("../evil", "E_x", 0, artifact.value()).ok());
  EXPECT_FALSE(repo.value().Store("warpx", "a/b", 0, artifact.value()).ok());
  EXPECT_FALSE(repo.value().Store("", "E_x", 0, artifact.value()).ok());
  EXPECT_FALSE(repo.value().Store("warpx", "E_x", -1, artifact.value()).ok());
}

TEST_F(RepositoryTest, LoadMissingEntryFails) {
  auto repo = FieldRepository::Open(root_);
  ASSERT_TRUE(repo.ok());
  auto loaded = repo.value().Load("warpx", "E_x", 7);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// A manifest whose entry count exceeds what its bytes could hold is
// rejected before anything is allocated for the entries.
TEST_F(RepositoryTest, RejectsManifestWithImpossibleEntryCount) {
  std::filesystem::create_directories(root_);
  BinaryWriter w;
  w.Put<std::uint32_t>(0x4D414E46);  // "MANF"
  w.Put<std::uint32_t>(1);
  w.Put<std::uint64_t>(1000000000000);
  ASSERT_EQ(w.buffer().size(), 16u);
  ASSERT_TRUE(WriteFile(root_ + "/manifest.bin", w.buffer()).ok());
  auto repo = FieldRepository::Open(root_);
  ASSERT_FALSE(repo.ok());
  EXPECT_EQ(repo.status().code(), StatusCode::kInvalidArgument)
      << repo.status().ToString();
}

}  // namespace
}  // namespace mgardp
