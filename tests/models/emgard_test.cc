#include "models/emgard.h"

#include <gtest/gtest.h>

#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "sim/warpx.h"
#include "util/stats.h"

namespace mgardp {
namespace {

class EMgardTest : public ::testing::Test {
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

    EMgardConfig config;
    config.train.epochs = 40;
    config.train.learning_rate = 1e-3;
    auto model = EMgardModel::TrainModel(*records_, config);
    model.status().Abort("train");
    model_ = new EMgardModel(std::move(model).value());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete records_;
    delete series_;
  }

  static FieldSeries* series_;
  static std::vector<RetrievalRecord>* records_;
  static EMgardModel* model_;
};

FieldSeries* EMgardTest::series_ = nullptr;
std::vector<RetrievalRecord>* EMgardTest::records_ = nullptr;
EMgardModel* EMgardTest::model_ = nullptr;

TEST_F(EMgardTest, PredictsBoundedConstants) {
  const auto& rec = records_->front();
  for (int l = 0; l < model_->num_levels(); ++l) {
    auto c = model_->PredictConstant(l, rec.sketches[l], rec.level_errors[l],
                                     rec.bitplanes[l]);
    ASSERT_TRUE(c.ok());
    EXPECT_GE(c.value(), model_->config().min_constant);
    EXPECT_LE(c.value(), model_->config().max_constant);
  }
}

TEST_F(EMgardTest, LearnedEstimateTighterThanTheory) {
  // The entire point of E-MGARD: its estimate is much closer to the actual
  // error than the theory bound, while remaining in the right ballpark.
  auto fr = Refactorer().Refactor(series_->frames[4]);
  ASSERT_TRUE(fr.ok());
  const RefactoredField& field = fr.value();
  TheoryEstimator theory;
  LearnedConstantsEstimator learned(model_);
  const std::vector<int> prefix(field.num_levels(), 10);
  const double theory_est = theory.Estimate(field, prefix);
  const double learned_est = learned.Estimate(field, prefix);
  EXPECT_LT(learned_est, theory_est);
  auto rec = ReconstructFromPrefix(field, prefix);
  ASSERT_TRUE(rec.ok());
  const double actual =
      MaxAbsError(series_->frames[4].vector(), rec.value().vector());
  // Learned estimate within two orders of magnitude of the truth; theory is
  // typically much farther.
  if (actual > 0.0) {
    EXPECT_LT(learned_est / actual, theory_est / actual);
  }
}

TEST_F(EMgardTest, RetrievalWithLearnedEstimatorReadsLess) {
  auto fr = Refactorer().Refactor(series_->frames[5]);
  ASSERT_TRUE(fr.ok());
  const RefactoredField& field = fr.value();
  TheoryEstimator theory;
  LearnedConstantsEstimator learned(model_);
  Reconstructor base(&theory), ours(&learned);
  const double bound = 1e-4 * field.data_summary.range();
  auto base_plan = base.Plan(field, bound);
  auto our_plan = ours.Plan(field, bound);
  ASSERT_TRUE(base_plan.ok() && our_plan.ok());
  EXPECT_LT(our_plan.value().total_bytes, base_plan.value().total_bytes);
}

TEST_F(EMgardTest, SerializationPreservesConstants) {
  const std::string blob = model_->Serialize();
  auto restored = EMgardModel::Deserialize(blob);
  ASSERT_TRUE(restored.ok());
  const auto& rec = records_->front();
  for (int l = 0; l < model_->num_levels(); ++l) {
    auto a = model_->PredictConstant(l, rec.sketches[l], rec.level_errors[l],
                                     rec.bitplanes[l]);
    auto b = restored.value().PredictConstant(
        l, rec.sketches[l], rec.level_errors[l], rec.bitplanes[l]);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_DOUBLE_EQ(a.value(), b.value());
  }
}

TEST_F(EMgardTest, RejectsBadLevelAndSketch) {
  const auto& rec = records_->front();
  EXPECT_FALSE(
      model_->PredictConstant(99, rec.sketches[0], 1e-3, 4).ok());
  EXPECT_FALSE(model_->PredictConstant(0, {1.0, 2.0}, 1e-3, 4).ok());
}

TEST_F(EMgardTest, LearnedTermsSumEqualsEstimate) {
  auto fr = Refactorer().Refactor(series_->frames[4]);
  ASSERT_TRUE(fr.ok());
  const RefactoredField& field = fr.value();
  LearnedConstantsEstimator learned(model_);
  const auto terms = learned.Terms(field);
  ASSERT_TRUE(terms.has_value());
  EXPECT_EQ(terms->scale, model_->safety_margin());
  for (int b : {0, 3, 10, 20, field.num_planes}) {
    const std::vector<int> prefix(field.num_levels(), b);
    EXPECT_EQ(terms->Sum(prefix), learned.Estimate(field, prefix));
  }
  EXPECT_EQ(terms->Sum({0, 4, 8, 12, 16}),
            learned.Estimate(field, {0, 4, 8, 12, 16}));
}

TEST_F(EMgardTest, LearnedTermsAreZeroOnLevelsBeyondTheModel) {
  // Five steps on a 33^3 field give one level more than the fields the
  // model saw; that level contributes nothing to Estimate, and so to the
  // table.
  WarpXSimulator sim(Dims3{33, 33, 33});
  RefactorOptions five_steps;
  five_steps.target_steps = 5;
  auto fr = Refactorer(five_steps).Refactor(sim.Field(WarpXField::kJx, 4));
  ASSERT_TRUE(fr.ok());
  const RefactoredField& field = fr.value();
  ASSERT_EQ(field.num_levels(), model_->num_levels() + 1);
  LearnedConstantsEstimator learned(model_);
  const auto terms = learned.Terms(field);
  ASSERT_TRUE(terms.has_value());
  const auto& extra = terms->term.back();
  EXPECT_EQ(extra.size(), field.level_errors.back().max_abs.size());
  for (double t : extra) {
    EXPECT_EQ(t, 0.0);
  }
  bool any_nonzero = false;
  for (int l = 0; l < model_->num_levels(); ++l) {
    for (double t : terms->term[l]) {
      any_nonzero = any_nonzero || t != 0.0;
    }
  }
  EXPECT_TRUE(any_nonzero);
  for (int b : {0, 6, 16}) {
    const std::vector<int> prefix(field.num_levels(), b);
    EXPECT_EQ(terms->Sum(prefix), learned.Estimate(field, prefix));
  }
}

TEST(EMgardValidationTest, RejectsEmptyAndUntrained) {
  EXPECT_FALSE(EMgardModel::TrainModel({}).ok());
  EMgardModel model;
  EXPECT_FALSE(model.PredictConstant(0, {1.0}, 1e-3, 1).ok());
  EXPECT_FALSE(EMgardModel::Deserialize("junk").ok());
}

}  // namespace
}  // namespace mgardp
