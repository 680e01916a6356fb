#include "models/features.h"
#include "models/training_data.h"

#include <gtest/gtest.h>

namespace mgardp {
namespace {

FieldSeries SmallWarpXSeries(int timesteps = 4) {
  WarpXDatasetOptions opts;
  opts.dims = Dims3{17, 17, 17};
  opts.num_timesteps = timesteps;
  return GenerateWarpX(opts, WarpXField::kEx);
}

TEST(BoundsTest, PaperBoundsAre81Ascending) {
  const auto bounds = PaperRelativeErrorBounds();
  ASSERT_EQ(bounds.size(), 81u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-9);
  EXPECT_DOUBLE_EQ(bounds.back(), 0.9);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

TEST(BoundsTest, SubsampledCoversSameDecades) {
  const auto bounds = SubsampledRelativeErrorBounds(3);
  ASSERT_EQ(bounds.size(), 27u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-9);
  EXPECT_NEAR(bounds.back(), 0.9, 1e-12);
  const auto single = SubsampledRelativeErrorBounds(1);
  ASSERT_EQ(single.size(), 9u);
}

class CollectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    series_ = SmallWarpXSeries();
    CollectOptions opts;
    opts.rel_bounds = SubsampledRelativeErrorBounds(2);
    opts.ladder_points = 0;  // planner records only; ladder tested separately
    auto result = CollectRecords(series_, {0, 1}, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    records_ = std::move(result).value();
  }

  FieldSeries series_;
  std::vector<RetrievalRecord> records_;
};

TEST_F(CollectTest, OneRecordPerTimestepAndBound) {
  EXPECT_EQ(records_.size(), 2u * 18u);
}

TEST_F(CollectTest, RecordsAreInternallyConsistent) {
  for (const RetrievalRecord& r : records_) {
    EXPECT_EQ(r.bitplanes.size(), 5u);
    EXPECT_EQ(r.level_errors.size(), 5u);
    EXPECT_EQ(static_cast<int>(r.features.size()), kNumDataFeatures);
    EXPECT_EQ(r.sketches.size(), 5u);
    // Achieved error never exceeds the request (conservative baseline),
    // except when the request sits below the conservative quantization
    // floor -- then everything is fetched and the floor is what you get.
    const bool full = r.bitplanes == std::vector<int>(5, 32);
    if (!full) {
      EXPECT_LE(r.achieved_error, r.requested_abs_error);
      EXPECT_LE(r.estimated_error, r.requested_abs_error);
    } else {
      EXPECT_GE(r.estimated_error + 1e-300, r.achieved_error);
    }
    for (int b : r.bitplanes) {
      EXPECT_GE(b, 0);
      EXPECT_LE(b, 32);
    }
  }
}

TEST_F(CollectTest, TighterBoundsNeedMoreData) {
  // Within one timestep, a tighter requested bound never reads fewer bytes.
  std::size_t prev = SIZE_MAX;
  for (std::size_t i = 0; i < 18; ++i) {  // timestep 0, ascending bounds
    EXPECT_LE(records_[i].total_bytes, prev);
    prev = records_[i].total_bytes;
  }
}

TEST_F(CollectTest, OverPessimismIsVisible) {
  // The signature gap of Fig. 2: achieved errors are well below requests
  // for mid-range bounds.
  int big_gap = 0;
  for (const RetrievalRecord& r : records_) {
    if (r.achieved_error > 0.0 &&
        r.requested_abs_error / r.achieved_error > 10.0) {
      ++big_gap;
    }
  }
  EXPECT_GT(big_gap, static_cast<int>(records_.size() / 2));
}

TEST(CollectLadderTest, LadderRowsCoverShallowAndDeepStates) {
  FieldSeries series = SmallWarpXSeries(2);
  CollectOptions opts;
  opts.rel_bounds = {1e-3};
  opts.ladder_points = 6;
  auto result = CollectRecords(series, {0}, opts);
  ASSERT_TRUE(result.ok());
  int ladder = 0;
  int shallow = 0, deep = 0;
  double prev_achieved = -1.0;
  for (const RetrievalRecord& r : result.value()) {
    if (!r.is_ladder) {
      continue;
    }
    ++ladder;
    EXPECT_EQ(r.requested_rel_error, 0.0);
    EXPECT_GT(r.achieved_error, 0.0);
    int total_planes = 0;
    for (int b : r.bitplanes) {
      total_planes += b;
    }
    if (total_planes <= 2 * 5) {
      ++shallow;
    }
    if (total_planes >= 20 * 5) {
      ++deep;
    }
    (void)prev_achieved;
  }
  // 6 depths x 2 shapes.
  EXPECT_EQ(ladder, 12);
  EXPECT_GT(shallow, 0);
  EXPECT_GT(deep, 0);
}

TEST(CollectValidationTest, RejectsBadTimestep) {
  FieldSeries series = SmallWarpXSeries(2);
  CollectOptions opts;
  opts.rel_bounds = {1e-3};
  EXPECT_FALSE(CollectRecords(series, {5}, opts).ok());
  EXPECT_FALSE(CollectRecords(series, {-1}, opts).ok());
}

}  // namespace
}  // namespace mgardp
