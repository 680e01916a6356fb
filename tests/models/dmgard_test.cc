#include "models/dmgard.h"

#include "models/features.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace mgardp {
namespace {

// Shared fixture: collect a small record set once for all D-MGARD tests.
class DMgardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WarpXDatasetOptions opts;
    opts.dims = Dims3{17, 17, 17};
    opts.num_timesteps = 6;
    series_ = new FieldSeries(GenerateWarpX(opts, WarpXField::kJx));
    CollectOptions copts;
    copts.rel_bounds = SubsampledRelativeErrorBounds(3);
    auto result = CollectRecords(*series_, {0, 1, 2, 3}, copts);
    result.status().Abort("collect");
    records_ = new std::vector<RetrievalRecord>(std::move(result).value());

    DMgardConfig config;
    config.hidden_width = 24;
    config.train.epochs = 200;
    config.train.batch_size = 32;       // more optimizer steps per epoch
    config.train.learning_rate = 1e-3;  // faster for small test runs
    auto model = DMgardModel::TrainModel(*records_, config);
    model.status().Abort("train");
    model_ = new DMgardModel(std::move(model).value());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete records_;
    delete series_;
  }

  static FieldSeries* series_;
  static std::vector<RetrievalRecord>* records_;
  static DMgardModel* model_;
};

FieldSeries* DMgardTest::series_ = nullptr;
std::vector<RetrievalRecord>* DMgardTest::records_ = nullptr;
DMgardModel* DMgardTest::model_ = nullptr;

TEST_F(DMgardTest, TrainsWithFiveLevelChain) {
  EXPECT_EQ(model_->num_levels(), 5);
}

TEST_F(DMgardTest, PredictionsAreValidCounts) {
  for (const RetrievalRecord& r : *records_) {
    auto pred = model_->Predict(r.features, r.sketches, r.achieved_error);
    ASSERT_TRUE(pred.ok());
    ASSERT_EQ(pred.value().size(), 5u);
    for (int b : pred.value()) {
      EXPECT_GE(b, 0);
      EXPECT_LE(b, 32);
    }
  }
}

TEST_F(DMgardTest, PredictsTrainingSetReasonably) {
  // On its own training data the chain should usually be within a couple of
  // planes (the paper reports most predictions within 1 on held-out data).
  auto errors = PredictionErrors(*model_, *records_);
  ASSERT_TRUE(errors.ok());
  int total = 0, close = 0;
  for (const auto& per_level : errors.value()) {
    for (int e : per_level) {
      ++total;
      if (std::abs(e) <= 3) {
        ++close;
      }
    }
  }
  EXPECT_GT(close, total / 2);
}

TEST_F(DMgardTest, TighterErrorRequestsMorePlanesOnAverage) {
  const auto& r = records_->front();
  auto tight = model_->Predict(r.features, r.sketches, 1e-8);
  auto loose = model_->Predict(r.features, r.sketches, 1e-1);
  ASSERT_TRUE(tight.ok() && loose.ok());
  int tight_sum = 0, loose_sum = 0;
  for (int b : tight.value()) {
    tight_sum += b;
  }
  for (int b : loose.value()) {
    loose_sum += b;
  }
  EXPECT_GT(tight_sum, loose_sum);
}

TEST_F(DMgardTest, SerializationPreservesPredictions) {
  const std::string blob = model_->Serialize();
  auto restored = DMgardModel::Deserialize(blob);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().Serialize(), blob);
  for (const RetrievalRecord& r : *records_) {
    auto a = model_->Predict(r.features, r.sketches, r.achieved_error);
    auto b = restored.value().Predict(r.features, r.sketches,
                                      r.achieved_error);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value(), b.value());
  }
}

TEST_F(DMgardTest, RejectsWrongFeatureCount) {
  EXPECT_FALSE(
      model_->Predict({1.0, 2.0}, records_->front().sketches, 1e-3).ok());
}

TEST_F(DMgardTest, RejectsMissingLevelSketches) {
  const RetrievalRecord& r = records_->front();
  std::vector<std::vector<double>> short_sketches(r.sketches.begin(),
                                                  r.sketches.end() - 1);
  EXPECT_FALSE(model_->Predict(r.features, short_sketches, 1e-3).ok());
  EXPECT_TRUE(model_->Predict(r.features, r.sketches, 1e-3).ok());
}

TEST_F(DMgardTest, PredictionsClampAtExtremeBounds) {
  // Bounds far outside the training range still yield plane counts in
  // [0, num_planes]: RoundClamp bounds every level and every chain input.
  const RetrievalRecord& r = records_->front();
  for (double bound : {1e-300, 1e-30, 1e30, 1e300}) {
    auto pred = model_->Predict(r.features, r.sketches, bound);
    ASSERT_TRUE(pred.ok()) << bound;
    ASSERT_EQ(pred.value().size(), 5u);
    for (int b : pred.value()) {
      EXPECT_GE(b, 0) << bound;
      EXPECT_LE(b, 32) << bound;
    }
  }
}

TEST_F(DMgardTest, PredictionErrorsAreResidualsOfPredict) {
  auto errors = PredictionErrors(*model_, *records_);
  ASSERT_TRUE(errors.ok());
  std::size_t row = 0;
  for (const RetrievalRecord& r : *records_) {
    if (r.is_ladder) {
      continue;
    }
    ASSERT_LT(row, errors.value().size());
    auto pred = model_->Predict(r.features, r.sketches, r.achieved_error);
    ASSERT_TRUE(pred.ok());
    ASSERT_EQ(errors.value()[row].size(), r.bitplanes.size());
    for (std::size_t l = 0; l < r.bitplanes.size(); ++l) {
      EXPECT_EQ(errors.value()[row][l], pred.value()[l] - r.bitplanes[l]);
    }
    ++row;
  }
  EXPECT_EQ(row, errors.value().size());
}

TEST_F(DMgardTest, ConcurrentPredictsMatchSerial) {
  // Inference is const and cache-free, so sessions may share one model.
  std::vector<std::vector<int>> serial;
  for (const RetrievalRecord& r : *records_) {
    auto pred = model_->Predict(r.features, r.sketches, r.achieved_error);
    ASSERT_TRUE(pred.ok());
    serial.push_back(pred.value());
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<int>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const RetrievalRecord& r : *records_) {
        auto pred = model_->Predict(r.features, r.sketches, r.achieved_error);
        got[t].push_back(pred.ok() ? pred.value() : std::vector<int>{});
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], serial) << "thread " << t;
  }
}

TEST_F(DMgardTest, DeserializeRejectsTruncatedBlobs) {
  const std::string blob = model_->Serialize();
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len < 64 && len < blob.size(); ++len) {
    lengths.push_back(len);
  }
  for (std::size_t len = 64; len < blob.size(); len += 97) {
    lengths.push_back(len);
  }
  lengths.push_back(blob.size() - 1);
  for (std::size_t len : lengths) {
    EXPECT_FALSE(DMgardModel::Deserialize(blob.substr(0, len)).ok())
        << "len=" << len;
  }
}

TEST(DMgardValidationTest, RejectsEmptyRecords) {
  EXPECT_FALSE(DMgardModel::TrainModel({}).ok());
}

TEST(DMgardValidationTest, UntrainedModelRefusesToPredict) {
  DMgardModel model;
  std::vector<double> f(kNumDataFeatures, 0.0);
  EXPECT_FALSE(model.Predict(f, {}, 1e-3).ok());
}

TEST(DMgardValidationTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DMgardModel::Deserialize("garbage").ok());
}

TEST(DMgardAblationTest, IndependentModeAlsoTrains) {
  WarpXDatasetOptions opts;
  opts.dims = Dims3{9, 9, 9};
  opts.num_timesteps = 2;
  FieldSeries series = GenerateWarpX(opts, WarpXField::kEx);
  CollectOptions copts;
  copts.rel_bounds = SubsampledRelativeErrorBounds(1);
  auto records = CollectRecords(series, {0, 1}, copts);
  ASSERT_TRUE(records.ok());
  DMgardConfig config;
  config.chained = false;
  config.hidden_width = 8;
  config.train.epochs = 5;
  auto model = DMgardModel::TrainModel(records.value(), config);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto pred = model.value().Predict(records.value().front().features,
                                    records.value().front().sketches, 1e-4);
  ASSERT_TRUE(pred.ok());
}

}  // namespace
}  // namespace mgardp
