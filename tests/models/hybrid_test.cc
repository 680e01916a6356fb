#include "models/hybrid.h"

#include "models/features.h"

#include <gtest/gtest.h>

#include "util/stats.h"

namespace mgardp {
namespace {

class HybridTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WarpXDatasetOptions opts;
    opts.dims = Dims3{17, 17, 17};
    opts.num_timesteps = 8;
    series_ = new FieldSeries(GenerateWarpX(opts, WarpXField::kEx));
    std::vector<int> train_steps, test_steps;
    SplitTimesteps(series_->num_timesteps(), &train_steps, &test_steps);
    CollectOptions copts;
    copts.rel_bounds = SubsampledRelativeErrorBounds(3);
    auto records = CollectRecords(*series_, train_steps, copts);
    records.status().Abort("collect");

    DMgardConfig dconfig;
    dconfig.hidden_width = 16;
    dconfig.train.epochs = 80;
    dconfig.train.batch_size = 16;
    dconfig.train.learning_rate = 1e-3;
    auto dmodel = DMgardModel::TrainModel(records.value(), dconfig);
    dmodel.status().Abort("train D");
    dmgard_ = new DMgardModel(std::move(dmodel).value());

    EMgardConfig econfig;
    econfig.train.epochs = 80;
    econfig.train.learning_rate = 1e-3;
    auto emodel = EMgardModel::TrainModel(records.value(), econfig);
    emodel.status().Abort("train E");
    emgard_ = new EMgardModel(std::move(emodel).value());
    test_step_ = test_steps.front();
  }

  static void TearDownTestSuite() {
    delete dmgard_;
    delete emgard_;
    delete series_;
  }

  static FieldSeries* series_;
  static DMgardModel* dmgard_;
  static EMgardModel* emgard_;
  static int test_step_;
};

FieldSeries* HybridTest::series_ = nullptr;
DMgardModel* HybridTest::dmgard_ = nullptr;
EMgardModel* HybridTest::emgard_ = nullptr;
int HybridTest::test_step_ = 0;

TEST_F(HybridTest, PlanMeetsLearnedBoundOrIsFull) {
  auto field = Refactorer().Refactor(series_->frames[test_step_]);
  ASSERT_TRUE(field.ok());
  LearnedConstantsEstimator learned(emgard_);
  const double bound = 1e-4 * field.value().data_summary.range();
  auto plan = PlanHybrid(field.value(), bound, *dmgard_, learned);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const bool full =
      plan.value().prefix ==
      std::vector<int>(field.value().num_levels(), field.value().num_planes);
  EXPECT_TRUE(plan.value().estimated_error <= bound || full);
}

TEST_F(HybridTest, NeverWorseThanDMgardAlone) {
  // The trim/extend pass can only keep or reduce D-MGARD's byte count when
  // the warm start over-provisions, and never returns an under-verified
  // plan when it under-provisions.
  auto field = Refactorer().Refactor(series_->frames[test_step_]);
  ASSERT_TRUE(field.ok());
  LearnedConstantsEstimator learned(emgard_);
  TheoryEstimator theory;
  Reconstructor any(&theory);
  for (double rel : {1e-2, 1e-4, 1e-6}) {
    const double bound = rel * field.value().data_summary.range();
    auto dpred = dmgard_->Predict(
        ExtractDataFeatures(field.value().data_summary),
        field.value().level_sketches, bound);
    ASSERT_TRUE(dpred.ok());
    auto dplan = any.PlanFromPrefix(field.value(), dpred.value());
    ASSERT_TRUE(dplan.ok());
    auto hplan = PlanHybrid(field.value(), bound, *dmgard_, learned);
    ASSERT_TRUE(hplan.ok());
    const double d_est = learned.Estimate(field.value(),
                                          dplan.value().prefix);
    if (d_est <= bound) {
      // Warm start already verified: hybrid must trim or match.
      EXPECT_LE(hplan.value().total_bytes, dplan.value().total_bytes);
    } else {
      // Warm start rejected: hybrid extended until verified (or full).
      EXPECT_GE(hplan.value().total_bytes, dplan.value().total_bytes);
    }
  }
}

TEST_F(HybridTest, ReconstructionRespectsLooseBound) {
  auto field = Refactorer().Refactor(series_->frames[test_step_]);
  ASSERT_TRUE(field.ok());
  LearnedConstantsEstimator learned(emgard_);
  const double bound = 1e-3 * field.value().data_summary.range();
  auto plan = PlanHybrid(field.value(), bound, *dmgard_, learned);
  ASSERT_TRUE(plan.ok());
  auto data = ReconstructFromPrefix(field.value(), plan.value().prefix);
  ASSERT_TRUE(data.ok());
  const double actual = MaxAbsError(series_->frames[test_step_].vector(),
                                    data.value().vector());
  // Learned control has no hard guarantee; stay within an order of
  // magnitude (Sec. IV-E of the paper).
  EXPECT_LT(actual, 10.0 * bound);
}

TEST_F(HybridTest, OverProvisionedWarmStartIsTrimmedToSuffixMinimal) {
  auto field = Refactorer().Refactor(series_->frames[test_step_]);
  ASSERT_TRUE(field.ok());
  const RefactoredField& f = field.value();
  TheoryEstimator theory;
  // Loose enough that D-MGARD's prediction meets the theory bound, so
  // PlanHybrid takes the trim path rather than extending.
  const double bound = 1e-1 * f.data_summary.range();
  RetrievalPlan warm;
  auto plan = PlanHybrid(f, bound, *dmgard_, theory, &warm);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_LE(warm.estimated_error, bound);
  EXPECT_LE(plan.value().estimated_error, bound);
  EXPECT_LE(plan.value().total_bytes, warm.total_bytes);
  for (int l = 0; l < f.num_levels(); ++l) {
    SCOPED_TRACE(l);
    EXPECT_LE(plan.value().prefix[l], warm.prefix[l]);
    if (plan.value().prefix[l] > 0) {
      std::vector<int> shorter = plan.value().prefix;
      --shorter[l];
      EXPECT_GT(theory.Estimate(f, shorter), bound);
    }
  }
}

TEST_F(HybridTest, RejectsBadBound) {
  auto field = Refactorer().Refactor(series_->frames[test_step_]);
  ASSERT_TRUE(field.ok());
  LearnedConstantsEstimator learned(emgard_);
  EXPECT_FALSE(PlanHybrid(field.value(), 0.0, *dmgard_, learned).ok());
  EXPECT_FALSE(PlanHybrid(field.value(), -1.0, *dmgard_, learned).ok());
}

}  // namespace
}  // namespace mgardp
