// Behavioural contracts around ladder records: D-MGARD must ignore them,
// E-MGARD must use them, and its safety margin must be calibrated.

#include <gtest/gtest.h>

#include "models/dmgard.h"
#include "models/emgard.h"
#include "models/training_data.h"

namespace mgardp {
namespace {

std::vector<RetrievalRecord> SmallRecords(int ladder_points) {
  WarpXDatasetOptions opts;
  opts.dims = Dims3{17, 17, 17};
  opts.num_timesteps = 4;
  FieldSeries series = GenerateWarpX(opts, WarpXField::kEx);
  CollectOptions copts;
  copts.rel_bounds = SubsampledRelativeErrorBounds(2);
  copts.ladder_points = ladder_points;
  auto records = CollectRecords(series, {0, 1}, copts);
  records.status().Abort("collect");
  return std::move(records).value();
}

TEST(LadderTest, DMgardIgnoresLadderRows) {
  // Training on records with and without ladder rows must give the same
  // model (same weights -> identical predictions).
  auto with = SmallRecords(8);
  std::vector<RetrievalRecord> without;
  for (const auto& r : with) {
    if (!r.is_ladder) {
      without.push_back(r);
    }
  }
  ASSERT_LT(without.size(), with.size());

  DMgardConfig config;
  config.hidden_width = 8;
  config.train.epochs = 10;
  config.train.batch_size = 16;
  auto a = DMgardModel::TrainModel(with, config);
  auto b = DMgardModel::TrainModel(without, config);
  ASSERT_TRUE(a.ok() && b.ok());
  const auto& rec = without.front();
  EXPECT_EQ(a.value().Serialize(), b.value().Serialize());
  auto pa = a.value().Predict(rec.features, rec.sketches, 1e-4);
  auto pb = b.value().Predict(rec.features, rec.sketches, 1e-4);
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_EQ(pa.value(), pb.value());
}

TEST(LadderTest, DMgardRefusesLadderOnlyRecords) {
  auto records = SmallRecords(4);
  std::vector<RetrievalRecord> ladder_only;
  for (const auto& r : records) {
    if (r.is_ladder) {
      ladder_only.push_back(r);
    }
  }
  ASSERT_FALSE(ladder_only.empty());
  EXPECT_FALSE(DMgardModel::TrainModel(ladder_only).ok());
}

TEST(LadderTest, EMgardUsesLadderRows) {
  // Ladder rows change E-MGARD's training set, so the trained model must
  // differ from one trained without them.
  auto with = SmallRecords(8);
  std::vector<RetrievalRecord> without;
  for (const auto& r : with) {
    if (!r.is_ladder) {
      without.push_back(r);
    }
  }
  EMgardConfig config;
  config.train.epochs = 10;
  auto a = EMgardModel::TrainModel(with, config);
  auto b = EMgardModel::TrainModel(without, config);
  ASSERT_TRUE(a.ok() && b.ok());
  const auto& rec = without.front();
  bool any_diff = false;
  for (int l = 0; l < a.value().num_levels(); ++l) {
    auto ca = a.value().PredictConstant(l, rec.sketches[l],
                                        rec.level_errors[l],
                                        rec.bitplanes[l]);
    auto cb = b.value().PredictConstant(l, rec.sketches[l],
                                        rec.level_errors[l],
                                        rec.bitplanes[l]);
    ASSERT_TRUE(ca.ok() && cb.ok());
    if (ca.value() != cb.value()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(LadderTest, SafetyMarginIsCalibratedAndSerialized) {
  auto records = SmallRecords(6);
  EMgardConfig config;
  config.train.epochs = 10;
  auto model = EMgardModel::TrainModel(records, config);
  ASSERT_TRUE(model.ok());
  EXPECT_GE(model.value().safety_margin(), 1.0);
  auto restored = EMgardModel::Deserialize(model.value().Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ(restored.value().safety_margin(),
                   model.value().safety_margin());
}

TEST(LadderTest, ZeroLadderPointsDisables) {
  auto records = SmallRecords(0);
  for (const auto& r : records) {
    EXPECT_FALSE(r.is_ladder);
  }
}

}  // namespace
}  // namespace mgardp
