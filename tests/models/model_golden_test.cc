// Golden pins for trained models: the serialized weights of a chained
// D-MGARD and an E-MGARD trained for two epochs on a fixed record set, the
// D-MGARD prefixes they predict, and the E-MGARD term table. Training and
// inference are deterministic (fixed seeds, -ffp-contract=off), so any
// change to the trainer, optimizer, layers or prediction chain that moves a
// single bit of a weight or an output fails here.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dnn/mlp.h"
#include "dnn/trainer.h"
#include "models/dmgard.h"
#include "models/emgard.h"
#include "models/features.h"
#include "progressive/refactorer.h"
#include "sim/dataset.h"
#include "util/crc32c.h"
#include "util/io.h"
#include "util/rng.h"

namespace mgardp {
namespace {

class ModelGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WarpXDatasetOptions opts;
    opts.dims = Dims3{17, 17, 17};
    opts.num_timesteps = 5;
    series_ = new FieldSeries(GenerateWarpX(opts, WarpXField::kJx));
    CollectOptions copts;
    copts.rel_bounds = SubsampledRelativeErrorBounds(3);
    auto records = CollectRecords(*series_, {0, 1, 2, 3}, copts);
    records.status().Abort("collect");
    records_ = new std::vector<RetrievalRecord>(std::move(records).value());
    auto field = Refactorer().Refactor(series_->frames[4]);
    field.status().Abort("refactor");
    field_ = new RefactoredField(std::move(field).value());
  }

  static void TearDownTestSuite() {
    delete field_;
    delete records_;
    delete series_;
  }

  static DMgardModel TrainDMgard() {
    DMgardConfig config;
    config.hidden_width = 16;
    config.train.epochs = 2;
    config.train.batch_size = 32;
    config.train.learning_rate = 1e-3;
    auto model = DMgardModel::TrainModel(*records_, config);
    model.status().Abort("train D-MGARD");
    return std::move(model).value();
  }

  static EMgardModel TrainEMgard() {
    EMgardConfig config;
    config.train.epochs = 2;
    config.train.learning_rate = 1e-3;
    auto model = EMgardModel::TrainModel(*records_, config);
    model.status().Abort("train E-MGARD");
    return std::move(model).value();
  }

  static FieldSeries* series_;
  static std::vector<RetrievalRecord>* records_;
  static RefactoredField* field_;
};

FieldSeries* ModelGoldenTest::series_ = nullptr;
std::vector<RetrievalRecord>* ModelGoldenTest::records_ = nullptr;
RefactoredField* ModelGoldenTest::field_ = nullptr;

TEST_F(ModelGoldenTest, DMgardWeightsAndPrefixes) {
  const DMgardModel model = TrainDMgard();
  EXPECT_EQ(Crc32c(model.Serialize()), 3491040049u);

  const std::vector<double> features =
      ExtractDataFeatures(field_->data_summary);
  const double range = field_->data_summary.range();
  const std::vector<std::vector<int>> expected = {
      {24, 32, 0, 14, 12}, {26, 32, 0, 14, 11}, {26, 32, 0, 14, 9}};
  const double rel[] = {1e-2, 1e-4, 1e-6};
  for (int i = 0; i < 3; ++i) {
    auto prefix = model.Predict(features, field_->level_sketches,
                                rel[i] * range);
    ASSERT_TRUE(prefix.ok());
    EXPECT_EQ(prefix.value(), expected[i]) << "bound " << rel[i];
  }

  // A reloaded model predicts exactly as the trained one.
  auto reloaded = DMgardModel::Deserialize(model.Serialize());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().Serialize(), model.Serialize());
}

TEST_F(ModelGoldenTest, EMgardWeightsAndTerms) {
  const EMgardModel model = TrainEMgard();
  EXPECT_EQ(Crc32c(model.Serialize()), 4004325008u);

  LearnedConstantsEstimator learned(&model);
  const auto terms = learned.Terms(*field_);
  ASSERT_TRUE(terms.has_value());
  ASSERT_EQ(terms->term.size(),
            static_cast<std::size_t>(field_->num_levels()));
  std::uint32_t crc = Crc32c(&terms->scale, sizeof(terms->scale));
  for (const std::vector<double>& level : terms->term) {
    crc = ExtendCrc32c(crc, level.data(), level.size() * sizeof(double));
  }
  EXPECT_EQ(crc, 539661247u);
}

// The MLP blob still carries the dropout rate it once had; it never applied
// at inference, so any stored value must load and predict exactly as 0.
TEST_F(ModelGoldenTest, StoredRateFieldIsIgnored) {
  const std::size_t dim = 4;
  const dnn::MlpConfig config = dnn::MlpConfig::DMgardDefault(dim, 8);
  Rng init(5);
  dnn::Mlp mlp(config, &init);
  Rng data(6);
  dnn::Matrix x(64, dim);
  dnn::Matrix y(64, 1);
  for (std::size_t r = 0; r < 64; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      x(r, c) = data.Uniform(-1.0, 1.0);
      sum += x(r, c);
    }
    y(r, 0) = sum;
  }
  dnn::TrainConfig train;
  train.epochs = 2;
  train.batch_size = 16;
  train.learning_rate = 1e-2;
  ASSERT_TRUE(dnn::Train(&mlp, x, y, train).ok());

  BinaryWriter w;
  mlp.Serialize(&w);
  const std::string blob = w.TakeBuffer();
  EXPECT_EQ(Crc32c(blob), 2414594900u);

  // input_dim, hidden count + dims, output_dim, leaky slope, then dropout.
  const std::size_t offset = 8 + 8 + 8 * config.hidden_dims.size() + 8 + 8;
  double stored = -1.0;
  std::memcpy(&stored, blob.data() + offset, sizeof(stored));
  ASSERT_EQ(stored, 0.0);
  std::string patched = blob;
  const double rate = 0.5;
  std::memcpy(patched.data() + offset, &rate, sizeof(rate));

  dnn::Mlp plain, with_rate;
  BinaryReader plain_reader(blob);
  ASSERT_TRUE(plain.Deserialize(&plain_reader).ok());
  BinaryReader rate_reader(patched);
  ASSERT_TRUE(with_rate.Deserialize(&rate_reader).ok());
  EXPECT_EQ(with_rate.Predict(x).vector(), plain.Predict(x).vector());
  EXPECT_EQ(plain.Predict(x).vector(), mlp.Predict(x).vector());
}

}  // namespace
}  // namespace mgardp
